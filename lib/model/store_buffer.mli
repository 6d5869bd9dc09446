(** The shared store-buffer machine behind the TSO and PSO models.

    Both hardware models are the same machine — per-thread write
    buffers in front of a flat memory, store-to-load forwarding,
    fencing operations (volatile writes, lock, unlock, RMW) gated on
    empty buffers, and a nondeterministic drain step — differing only
    in the buffer discipline: TSO keeps one FIFO per thread, PSO one
    FIFO per (thread, location).  The {!BUFFER} signature captures
    exactly that difference; {!Make} builds the rest of the machine
    once, on {!Safeopt_exec.Explorer.graph_behaviours} with hash-consed
    states, so the flush/drain/fencing logic lives in one place. *)

open Safeopt_trace
open Safeopt_exec
open Safeopt_lang

(** The per-thread buffer discipline: the only thing TSO and PSO
    disagree about. *)
module type BUFFER = sig
  type t

  val name : string
  (** Model name ("tso", "pso"): tags spans and spells the span name
      [name ^ ".behaviours"]. *)

  val empty : t

  val is_empty : t -> bool
  (** Fencing operations (volatile writes, lock, unlock, RMW) require
      this. *)

  val push : Location.t -> Value.t -> t -> t
  (** Enqueue a pending write (newest). *)

  val forward : t -> Location.t -> Value.t option
  (** Store-to-load forwarding: the newest pending write to the
      location, if any. *)

  val drains : t -> ((Location.t * Value.t) * t) list
  (** Every write that may drain to memory right now, with the buffer
      that remains: TSO offers only its single oldest entry, PSO the
      oldest entry of every per-location queue. *)

  val digest : (Location.t -> int) -> t -> int list
  (** Injective encoding (given the interner), for state hashing. *)
end

module Tso_buffer : BUFFER
(** One FIFO per thread: write-read reordering only. *)

module Pso_buffer : BUFFER
(** One FIFO per (thread, location): additionally write-write
    reordering. *)

(** The machine built over a buffer discipline. *)
module type MACHINE = sig
  val name : string

  type 'ts state
  (** A machine state over thread states ['ts]. *)

  val graph : Location.Volatile.t -> 'ts System.t -> 'ts state Explorer.graph
  (** The machine's state graph over a thread system: what
      {!behaviours} explores.  Each call gets its own interning tables,
      safe to share across the domains of a pool. *)

  val behaviours :
    ?max_states:int ->
    ?stats:Explorer.stats ->
    ?jobs:int ->
    ?pool:Par.Pool.t ->
    Location.Volatile.t ->
    'ts System.t ->
    Behaviour.Set.t
  (** All observable behaviours of the system under the model
      (prefix-closed), on the unified engine
      ({!Explorer.graph_behaviours}).  [jobs]/[pool] parallelise the
      state discovery past {!Explorer.steal_after} states; the
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
