(** The unified exploration engine.

    A depth-first scheduler over an abstract thread system
    ({!System.t}) and a generic memoised search over explicit transition
    graphs ({!type-graph}).  All exhaustive analyses in the repository —
    behaviour enumeration, state counting, race and deadlock witness
    searches, TSO/PSO machine exploration — run on this engine.

    Three properties distinguish it from a naive search:

    - {b Hash-consed states.}  Scheduler states are digested to compact
      int tuples: thread-state keys are interned once per distinct
      thread configuration, shared memory and the monitor table are
      interned once per distinct value, and the memo/visited tables are
      keyed on the resulting digest.  Successor states update only the
      digest component their action touches.

    - {b Sleep-set partial-order reduction.}  When a [local] predicate
      is supplied, exploration combines persistent-set selection with
      Godefroid-style sleep sets over an independence relation derived
      from {!Action.conflicting} (plus monitor and external-action
      dependence).  Reduced and unreduced behaviour sets coincide; see
      DESIGN.md for the soundness argument.  The race search takes the
      same [local] and follows persistent sets only (no sleep sets);
      see {!find_adjacent_race}.

    - {b Streaming.}  Maximal executions are produced as a lazy
      {!Seq.t}, so consumers searching for a witness stop at the first
      hit instead of materialising the full (exponential) list.

    Analyses are exact for systems whose global state graph is finite
    and acyclic.  A cycle raises {!Cyclic}; exceeding the state budget
    raises {!Too_many_states}. *)

open Safeopt_trace

exception Cyclic
exception Too_many_states of int

val default_max_states : int

(** {1 Exploration statistics} *)

type stats = {
  mutable states : int;  (** distinct states visited *)
  mutable edges : int;  (** transitions traversed *)
  mutable memo_hits : int;  (** visits answered from the memo table *)
  mutable por_cuts : int;  (** transitions pruned by the reduction *)
  mutable peak_frontier : int;
      (** maximum DFS stack depth (sequential) or per-worker frontier
          buffer length (parallel) *)
  mutable wall : float;  (** accumulated wall-clock seconds (monotonic) *)
  mutable domains : int;  (** pool size of the last parallel run; 0 if
                              every run was sequential *)
  mutable steals : int;
      (** successful steal scans across workers (each moves up to half
          of a victim deque) *)
  mutable lock_waits : int;
      (** genuine starvation parks across workers: a worker slept on
          the scheduler's condition variable and woke to more work
          (termination and abort wakeups are not counted) *)
}

val create_stats : unit -> stats
val reset_stats : stats -> unit

val merge_stats : into:stats -> stats -> unit
(** Aggregate a (per-domain) record into an accumulator: counters add,
    [peak_frontier] and [domains] take the maximum.  Parallel runs keep
    one private record per worker domain and merge them at join, so no
    two domains ever mutate the same record. *)

val pp_stats : Format.formatter -> stats -> unit
(** Human-readable rendering.  The parallel counters are printed only
    when [domains > 0], so sequential output is unchanged. *)

val stats_to_json : stats -> string
(** One-line JSON object (states, edges, memo_hits, por_cuts,
    peak_frontier, wall_s, domains, steals, lock_waits). *)

val publish : into:Safeopt_obs.Metrics.t -> stats -> unit
(** Record a stats delta into a metrics registry ([explorer.*]
    counters and gauges).  [pp_stats] and [stats_to_json] render
    through a fresh one-stripe registry via this, so the registry is
    the single source of truth for the compatibility views. *)

val of_registry : Safeopt_obs.Metrics.t -> stats
(** Read the [explorer.*] metrics of a registry back into a stats
    record (inverse of {!publish} on a fresh registry). *)

val live_progress : unit -> stats
(** A consistent point-in-time view of total exploration progress:
    everything already published into [Metrics.global] {e plus} the
    deltas of every stats record a run is actively mutating (entry
    points in flight, per-worker records of a parallel run).  Safe to
    call from any domain — this is the heartbeat sampler's progress
    source.  The hand-off from "in flight" to "published" happens under
    the same lock this reads, so consecutive calls are monotone in
    every cumulative counter, and after the run returns the view equals
    the registry alone.  Meaningful only while [Metrics.enabled ()]. *)

(** {1 Independence} *)

val independent : Thread_id.t * Action.t -> Thread_id.t * Action.t -> bool
(** The static independence relation underlying the reduction: two
    transitions commute iff they belong to different threads, their
    actions do not conflict as memory accesses (volatility is irrelevant
    for commutation), they do not touch the same monitor, and they are
    not both external (the order of external actions is the observable
    behaviour). *)

(** {1 Exhaustive analyses over thread systems}

    {2 Parallel exploration}

    The exhaustive analyses below accept [?jobs] / [?pool].  [?pool]
    (a caller-managed {!Par.Pool.t}, reused across many explorations)
    takes precedence over [?jobs] (a pool of that many domains,
    resolved through {!Par.resolve_jobs}: [0] means all recommended
    cores).  When neither is given, or the resolved size is 1, the
    sequential engine runs completely unchanged — no mutexes, no
    atomics.

    {b A pool does not mean stealing.}  A pooled call first runs the
    sequential engine under a budget of [min max_states steal_after].
    Only when that budget runs out does it start over on the
    work-stealing engine with the caller's [max_states] (a one-shot
    [?jobs] pool is created only then).  A [max_states] at or below
    {!steal_after} therefore runs sequentially only.  Small state
    spaces never pay for the stealing engine's striped tables, deque
    traffic and second pass, and a racy program's race search stops
    at the first race instead of building the whole graph.  The
    counters in [?stats] are those of the engine that decided the call:
    an escalated call does not count the abandoned sequential prefix,
    and [domains] stays 0 when the sequential engine decided.  The
    [explorer.*] span of each call carries an [engine] attribute:
    ["seq"], ["par"] (only through {!Parallel}) or ["seq→par"].

    The work-stealing engine discovers the state graph across
    per-worker deques ({!Par.Ws}: own deque LIFO, steals FIFO; dedupe
    through the striped packed digest table {!Par.Ptbl}), then folds
    results over the discovered compact graph sequentially.  The full
    reduction survives parallelism: persistent-set selection is a pure
    per-state decision, and sleep sets travel {e inside} each work
    item, with per-state refinement (intersection + re-expansion) in
    the digest table's meta slots converging to an order-independent
    fixpoint.  {b Results are identical} whichever engine decides:
    same behaviour sets, same state counts — [count_states] at
    [jobs N] equals [jobs 1] {e exactly}, with or without [local] —
    same DRF verdicts, same [Cyclic] / [Too_many_states] outcomes.
    Only race-witness {e choice} may differ where several witnesses
    exist, and under reduction the stealing engine's [edges]/[por_cuts]
    {e work} counters may exceed the sequential figures (sleep-set
    refinements re-expand a state; the state and result sets are
    unaffected).  {!Parallel} runs the stealing engine unconditionally,
    for the parity tests and benchmarks that must exercise it. *)

val steal_after : int
(** The state count past which a pooled call hands its exploration to
    the work-stealing engine: 16,384.  Chosen from the crossover sweep
    of [bench parallel] (BENCH_parallel.json), which times reduced
    [count_states] on generated programs from about 10^2 to 4x10^5
    states, sequentially and on the stealing engine.  On 2 cores the
    stealing engine runs at 0.3x to 0.9x of the sequential one below
    about 3x10^3 states; up to about 1.6x10^4 its margin is thin
    (1.1x to 1.4x on a 2-domain pool, under 1x on an oversubscribed
    one) and depends on the program's shape; above, it runs at 1.2x
    to 1.6x.  An escalated call also pays for its abandoned prefix of
    [steal_after] states: in the same sweep the pooled call ran at
    0.75x to 0.9x of the sequential one between 3x10^4 and 6x10^4
    states, and at 1.1x to 1.3x from about 2x10^5.  Every
    litmus-corpus program, and every program the benchmark checks
    exhaustively, stays below it with margin.  Not a flag or an
    option: it is the one threshold of the engine choice. *)

val behaviours :
  ?max_states:int ->
  ?local:(Action.t -> bool) ->
  ?stats:stats ->
  ?jobs:int ->
  ?pool:Par.Pool.t ->
  'ts System.t ->
  Behaviour.Set.t
(** The set of behaviours of all executions.  Prefix-closed.

    [local] enables the reduction (persistent sets and sleep sets, in
    either engine); it must return [true] only for actions
    that are invisible (not external) and independent of every other
    thread — accesses to locations touched by a single thread.  The
    behaviour set is identical with and without [local], and with and
    without parallelism. *)

val count_states :
  ?max_states:int ->
  ?local:(Action.t -> bool) ->
  ?stats:stats ->
  ?jobs:int ->
  ?pool:Par.Pool.t ->
  'ts System.t ->
  int
(** Number of distinct scheduler states explored; [local] as in
    {!behaviours} (the reduced count can be much smaller).  The count
    is exact across parallelism: [jobs N] equals [jobs 1] for every
    [N], with or without [local] — parallel work items carry their own
    sleep sets, so the parallel search prunes exactly as hard as the
    sequential one. *)

val maximal_executions_seq :
  ?max_steps:int -> ?stats:stats -> 'ts System.t -> Interleaving.t Seq.t
(** All executions that cannot be extended, as a lazy stream in
    scheduler order.  Consuming a prefix only pays for the transitions
    actually traversed; [max_steps] bounds that number across the whole
    stream.  The stream is re-evaluable (each traversal restarts the
    search, re-counting steps). *)

val maximal_executions :
  ?max_steps:int -> ?stats:stats -> 'ts System.t -> Interleaving.t list
(** [List.of_seq (maximal_executions_seq ...)]. *)

val count_executions : ?max_steps:int -> ?stats:stats -> 'ts System.t -> int

val find_adjacent_race :
  ?max_states:int ->
  ?local:(Action.t -> bool) ->
  ?stats:stats ->
  ?jobs:int ->
  ?pool:Par.Pool.t ->
  Location.Volatile.t ->
  'ts System.t ->
  Interleaving.t option
(** A witness execution whose last two actions are adjacent conflicting
    accesses by different threads, if one exists.  Each state's enabled
    labels are computed once and shared between the visit and the
    per-edge race checks.  Under [jobs]/[pool] the existence verdict is
    deterministic and agrees with the sequential search; the particular
    witness returned may differ (any adjacent race is a valid
    witness).

    [local] (as in {!behaviours}) reduces the search to the
    persistent-set edges: from each state only the selected transitions
    are followed, but each followed edge [u -a-> u'] is still checked
    against the {e full} enabled set of [u'].  The verdict is the same
    with and without [local]:

    - A local action touches a location that only its own thread
      accesses.  So it never conflicts, and it neither enables nor
      disables another thread's step.
    - A race [u -a-> u'] with [b] enabled at [u'] therefore survives:
      commute the selected local steps ahead of it until [a] is
      selected.
    - Start actions count as local whatever [local] says: they
      conflict with nothing and neither enable nor disable another
      thread's step.
    - [sys]'s state graph must be acyclic: unlike {!behaviours} this
      search has no {!Cyclic} check, and on a cycle a persistent-set
      search can ignore a race forever.  Thread-system graphs are
      acyclic (fuel is part of the thread key and loop-free code only
      advances), so no cycle proviso is needed there.
    - A reduced witness is an ordinary interleaving of the system, so
      it replays as before. *)

val is_drf :
  ?max_states:int ->
  ?stats:stats ->
  ?jobs:int ->
  ?pool:Par.Pool.t ->
  Location.Volatile.t ->
  'ts System.t ->
  bool

val find_deadlock :
  ?max_states:int -> ?stats:stats -> 'ts System.t -> Interleaving.t option
(** A witness execution reaching a state with no enabled transition
    while some thread still offers steps (blocked on a lock). *)

(** {1 Randomised sampling} *)

val sample_runs :
  ?max_actions:int -> seed:int -> runs:int -> 'ts System.t -> Behaviour.t Seq.t
(** A lazy stream of [runs] behaviours from a randomised scheduler.
    Run [i] derives its generator from [(seed, i)], so any prefix of the
    stream is deterministic and independent of how much is consumed. *)

val sample_behaviours :
  ?max_actions:int ->
  seed:int ->
  runs:int ->
  ?stats:stats ->
  'ts System.t ->
  Behaviour.Set.t
(** Prefix-closed union of {!sample_runs}.  Sound under-approximation of
    {!behaviours} for systems too large to enumerate. *)

(** {1 Generic graph exploration}

    For machines whose transition relation is not a {!System.t} — the
    TSO and PSO store-buffer machines — the engine exposes a memoised
    behaviour search over an explicit graph. *)

type 'st graph = {
  graph_initial : 'st;
  graph_transitions : 'st -> (Action.t option * 'st) list;
      (** [None] labels an internal transition (e.g. a buffer drain). *)
  graph_digest : 'st -> int list;
      (** An injective int encoding of the state; the engine interns it. *)
}

val graph_behaviours :
  ?max_states:int ->
  ?stats:stats ->
  ?jobs:int ->
  ?pool:Par.Pool.t ->
  'st graph ->
  Behaviour.Set.t
(** Prefix-closed behaviour set of the graph, memoised on the interned
    digest.  Raises {!Cyclic} / {!Too_many_states} as above.
    [jobs]/[pool] parallelise the graph discovery as described under
    {e Parallel exploration}; the resulting set is identical.  Under
    [jobs]/[pool] the engine calls [graph_transitions] and
    [graph_digest] from several worker domains concurrently, so any
    state the closures share (e.g. interning tables) must be
    thread-safe — {!Par.Intern} is made for this. *)

(** {1 Always-stealing entry points}

    The work-stealing engine without the sequential first attempt: each
    function runs the stealing engine on [pool] whatever the size of
    the state space, and records [domains = Par.Pool.size pool].  The
    [jobs N ≡ jobs 1] parity tests and [bench parallel] use these, so
    they keep exercising the stealing engine on small programs that
    the pooled entry points above would route to the sequential one.
    Arguments and results are those of the entry points above. *)

module Parallel : sig
  val behaviours :
    ?max_states:int ->
    ?local:(Action.t -> bool) ->
    ?stats:stats ->
    pool:Par.Pool.t ->
    'ts System.t ->
    Behaviour.Set.t

  val count_states :
    ?max_states:int ->
    ?local:(Action.t -> bool) ->
    ?stats:stats ->
    pool:Par.Pool.t ->
    'ts System.t ->
    int

  val find_adjacent_race :
    ?max_states:int ->
    ?local:(Action.t -> bool) ->
    ?stats:stats ->
    pool:Par.Pool.t ->
    Location.Volatile.t ->
    'ts System.t ->
    Interleaving.t option

  val graph_behaviours :
    ?max_states:int ->
    ?stats:stats ->
    pool:Par.Pool.t ->
    'st graph ->
    Behaviour.Set.t
end
