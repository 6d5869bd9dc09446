(** A PSO (partial store order) machine: per-location store buffers.

    Section 8 of the paper conjectures that results similar to the TSO
    explanation "can be achieved for other processor memory models".
    PSO (SPARC's weaker sibling) lets a thread's writes to {e different
    locations} drain out of order, so it additionally exhibits
    write-write reordering: message passing breaks.  Its weak
    behaviours should accordingly be reproduced under SC by programs
    reachable through W-W reordering (R-WW) in addition to TSO's R-WR
    and E-RAW — which {!explained_by_transformations} checks.

    Mechanics: each thread owns one FIFO buffer {e per location}; a
    write enqueues to its location's buffer; at any moment the oldest
    entry of any (thread, location) buffer may drain; reads forward
    from the thread's own buffer for that location; volatile writes,
    locks and unlocks require all of the thread's buffers to be
    empty (volatile reads are plain loads). *)

open Safeopt_trace
open Safeopt_exec
open Safeopt_lang

val behaviours :
  ?max_states:int ->
  ?stats:Explorer.stats ->
  ?jobs:int ->
  ?pool:Par.Pool.t ->
  Location.Volatile.t ->
  'ts System.t ->
  Behaviour.Set.t
(** As {!Machine.behaviours}, under PSO.  [jobs]/[pool] parallelise the
    state discovery past {!Explorer.steal_after} states; the resulting
    set is identical. *)

val program_behaviours :
  ?fuel:int ->
  ?max_states:int ->
  ?stats:Explorer.stats ->
  ?jobs:int ->
  ?pool:Par.Pool.t ->
  Ast.program ->
  Behaviour.Set.t

val weak_behaviours :
  ?fuel:int ->
  ?max_states:int ->
  ?stats:Explorer.stats ->
  ?jobs:int ->
  ?pool:Par.Pool.t ->
  Ast.program ->
  Behaviour.Set.t
(** PSO behaviours that are not SC behaviours. *)

val weak_beyond_tso :
  ?fuel:int ->
  ?max_states:int ->
  ?stats:Explorer.stats ->
  ?jobs:int ->
  ?pool:Par.Pool.t ->
  Ast.program ->
  Behaviour.Set.t
(** PSO behaviours that are not even TSO behaviours (the observable
    effect of write-write reordering alone). *)

val explained_by_transformations :
  ?fuel:int ->
  ?max_states:int ->
  ?max_programs:int ->
  Ast.program ->
  Behaviour.Set.t * Behaviour.Set.t * bool
(** [(pso, transformed_sc, included)] with the rule set
    {R-WW, R-WR, E-RAW}. *)
