(** The buffer disciplines behind the TSO and PSO models.

    Both hardware models are the same machine — per-thread write
    buffers in front of a flat memory, store-to-load forwarding,
    fencing operations (volatile writes, lock, unlock, RMW) gated on
    empty buffers, and a nondeterministic drain step — differing only
    in the buffer discipline: TSO keeps one FIFO per thread, PSO one
    FIFO per (thread, location).  The machine itself is the SC
    scheduler with a buffer per thread
    ({!Safeopt_exec.Explorer.machine_behaviours}): one enabled-set
    function and one pair of engines for all three models.  This module
    supplies the two disciplines and names the machines built on
    them. *)

open Safeopt_trace
open Safeopt_exec
open Safeopt_lang

module type BUFFER = Explorer.BUFFER
(** The per-thread buffer discipline: the only thing TSO and PSO
    disagree about.  [name] tags spans and spells the span name
    [name ^ ".behaviours"]. *)

module Tso_buffer : BUFFER
(** One FIFO per thread: write-read reordering only.  A drain offers
    only the single oldest entry. *)

module Pso_buffer : BUFFER
(** One FIFO per (thread, location): additionally write-write
    reordering.  A drain offers the oldest entry of every per-location
    queue. *)

(** The machine built over a buffer discipline. *)
module type MACHINE = sig
  val name : string

  val buffer : (module BUFFER)
  (** The machine's discipline, as {!Explorer.machine_behaviours} and
      {!Explorer.Parallel.machine_behaviours} take it. *)

  val behaviours :
    ?max_states:int ->
    ?stats:Explorer.stats ->
    ?jobs:int ->
    ?pool:Par.Pool.t ->
    Location.Volatile.t ->
    'ts System.t ->
    Behaviour.Set.t
  (** All observable behaviours of the system under the model
      (prefix-closed): {!Explorer.machine_behaviours} on {!buffer},
      inside a [name ^ ".behaviours"] span.  [jobs]/[pool] parallelise
      the state discovery past {!Explorer.steal_after} states; the
      resulting set is identical.
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
end

module Make (_ : BUFFER) : MACHINE

module Tso : MACHINE
module Pso : MACHINE
