(** Programs as thread systems for the execution-enumeration engine.

    Each thread first emits its start action [S(i)] (rule PAR of Fig. 7)
    and then follows the small-step semantics.  If the program contains
    loops, an action-fuel counter is embedded in the thread state so
    that the global state graph is acyclic and the engine's analyses
    terminate (they are then exact up to executions of [fuel] actions
    per thread); loop-free programs carry no fuel and are analysed
    exactly. *)

type state

val make : ?fuel:int -> Ast.program -> state Safeopt_exec.System.t
(** [fuel] (default 64) is used only when the program contains a
    [while] loop.

    The system's [key] is canonical: two thread states get equal keys
    exactly when they agree on thread id, started flag, fuel, code
    continuation, non-zero registers and non-zero monitor depths.  The
    continuation enters the key as its number in {!codes}, so building
    a key costs one table lookup and a few integer appends, never a
    pretty-print. *)

(** {1 Code continuations} *)

type codes
(** The code continuations a program's threads can reach, each
    numbered once.  Read-only after {!codes}, so it may be shared by
    the domains of a pool. *)

val codes : Ast.program -> codes
(** Number every continuation {!Semantics.next} can produce from the
    program's threads: flattened blocks, both arms of every [if], every
    [while] unrolling and exit, and the tail after each statement.
    Continuations are compared by {!Ast.equal_thread} under the
    whole-continuation hash {!Ast.hash_thread}. *)

val config_key : codes -> Semantics.config -> string
(** The configuration part of a thread-state key: code number, then the
    non-zero monitor depths, then the non-zero registers.  Two
    configurations whose code the program reaches have equal keys
    exactly when they have equal futures.
    @raise Invalid_argument if the program cannot reach the code. *)

val has_loop : Ast.program -> bool

val local_actions : Ast.program -> Safeopt_trace.Action.t -> bool
(** The partial-order-reduction predicate for {!Safeopt_exec.Explorer}:
    true for reads and writes of locations that, syntactically, only a
    single thread of the program accesses (such actions are invisible
    and independent of every other thread). *)
