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
    supplies the two disciplines; {!Memory_model} names the model each
    one gives. *)

open Safeopt_exec

module type BUFFER = Explorer.BUFFER
(** The per-thread buffer discipline: the only thing TSO and PSO
    disagree about.  [name] labels the [model] attribute of the
    [explorer.machine] span. *)

module Tso_buffer : BUFFER
(** One FIFO per thread: write-read reordering only.  A drain offers
    only the single oldest entry. *)

module Pso_buffer : BUFFER
(** One FIFO per (thread, location): additionally write-write
    reordering.  A drain offers the oldest entry of every per-location
    queue. *)
