(** Abstract thread systems.

    The execution-enumeration engine ({!Explorer}) is parametric in how
    threads produce their actions, so that both explicit tracesets
    ({!Traceset_system}) and the small-step semantics of the section-6
    language ([Safeopt_lang.Thread_system]) plug into the same exhaustive
    scheduler.

    A thread offers {e steps}.  Reads are offered as a location together
    with a continuation: in a sequentially consistent execution a read
    must see the most recent write, so the scheduler computes that value
    and asks the thread whether it can read it.  This keeps enumeration
    free of any "guess a value" blow-up. *)

open Safeopt_trace

type 'ts step =
  | Emit of Action.t * 'ts
      (** An unconditional action (write, lock, unlock, external, start).
          Must not be used for reads. *)
  | Read of Location.t * (Value.t -> 'ts option)
      (** A read of the given location; the continuation receives the
          value supplied by the scheduler and declines it with [None]. *)
  | Rmw of Location.t * (Value.t -> (Value.t * 'ts) list)
      (** An atomic read-modify-write of the given location: the
          continuation receives the current value and returns the
          possible (written value, successor state) outcomes — [[]] to
          decline, a list to allow nondeterministic systems (explicit
          tracesets) to offer several.  The scheduler performs the read
          and the write in one indivisible transition, emitting
          [Action.Rmw (l, read, written)]. *)

type 'ts t = {
  initial : 'ts list;  (** One state per thread; index = thread id. *)
  steps : 'ts -> 'ts step list;
      (** Thread-local possibilities from a state.  The explorer calls
          it once per distinct key per exploration (the stealing engine
          once per key per worker) and reuses the compiled steps for
          every scheduler state holding a thread with that key; it
          likewise asks a [Read] or [Rmw] continuation once per value. *)
  key : 'ts -> string;
      (** A canonical key for memoisation: two states with the same key
          must have the same future — the same steps, and the same
          answers to every value.  The explorer builds a successor's
          key when a search first follows the step to it, never for a
          step the reduction cuts. *)
}
