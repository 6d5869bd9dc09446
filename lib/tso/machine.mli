(** A store-buffer (TSO) machine for the section-6 language.

    The paper's section 8 reports that the Sun/SPARC TSO memory model
    can be explained by the paper's transformations (write-read
    reordering and read-after-write elimination, i.e. store-to-load
    forwarding).  This module provides the standard operational
    presentation of TSO so that claim can be tested: each thread owns a
    FIFO buffer of pending writes;

    - a normal write enqueues into the thread's buffer;
    - a read takes the newest pending write to its location from the
      thread's own buffer (store-to-load forwarding), else memory;
    - at any moment the oldest buffered write of any thread may drain
      to memory;
    - volatile writes, locks and unlocks are fencing: they require the
      thread's buffer to be empty (volatile reads are plain loads, as
      on x86/SPARC TSO).

    Threads are supplied through the same {!Safeopt_exec.System}
    abstraction the SC engine uses, so the two enumerations differ only
    in the memory model. *)

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
(** All observable behaviours of the system under TSO (prefix-closed),
    computed by the SC scheduler with a store buffer per thread
    ({!Explorer.machine_behaviours}).  [jobs]/[pool] parallelise the state
    discovery ({!Safeopt_exec.Par}) past {!Explorer.steal_after}
    states; the resulting set is identical.
    @raise Explorer.Cyclic / @raise Explorer.Too_many_states as the
    SC engine does. *)

val program_behaviours :
  ?fuel:int ->
  ?max_states:int ->
  ?stats:Explorer.stats ->
  ?jobs:int ->
  ?pool:Par.Pool.t ->
  Ast.program ->
  Behaviour.Set.t
(** TSO behaviours of a program. *)

val weak_behaviours :
  ?fuel:int ->
  ?max_states:int ->
  ?stats:Explorer.stats ->
  ?jobs:int ->
  ?pool:Par.Pool.t ->
  Ast.program ->
  Behaviour.Set.t
(** TSO behaviours that are not SC behaviours — the program's observable
    store-buffering weakness (empty for DRF programs; Theorem 2 +
    section 8). *)

val explained_by_transformations :
  ?fuel:int ->
  ?max_states:int ->
  ?max_programs:int ->
  Ast.program ->
  Behaviour.Set.t * Behaviour.Set.t * bool
(** [(tso, transformed_sc, included)]: TSO behaviours of the program,
    the union of SC behaviours of all programs reachable from it via
    the syntactic rules R-WR (write-read reordering) and E-RAW
    (store-to-load forwarding), and whether the former is a subset of
    the latter — the section-8 claim, checked per program. *)
