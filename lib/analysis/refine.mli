(** Thread-local refinement: decide pass safety per thread, without
    enumerating a single interleaving.

    The paper justifies a transformation by relating whole-program
    tracesets: the transformed denotation must be an elimination of the
    original's (Theorem 3), a reordering (Theorem 4), or an elimination
    followed by a reordering (Lemma 5).  But [[P]] is a {e union of
    per-thread trace sets} — every trace starts with [S(i)] and [S(i)]
    is never eliminable or reorderable — so a transformed thread-[i]
    trace can only ever be witnessed by an original thread-[i] trace.
    The relation therefore decomposes thread by thread, and checking it
    needs no scheduler: this is Poetzl & Kroening's observation
    (arXiv:1510.07171) that the DRF-soundness question answered
    globally by the exhaustive differential validator can be decided by
    per-thread refinement relations, at a cost {e linear} in the number
    of threads instead of exponential in the interleavings.

    For each thread this module enumerates the bounded single-thread
    denotations of the original and transformed program
    ({!Safeopt_lang.Denote.thread_traces}) and asks whether every
    transformed trace de-permutes — via the reordering search
    ({!Safeopt_core.Reorder.find}) over the memoised elimination
    closure ({!Safeopt_core.Elimination.memoised_member}) — into the
    original's traces: exactly Lemma 5's composition, which subsumes
    pure eliminations (identity permutation) and pure reorderings
    (empty elimination).

    Soundness of a {!Safe} verdict: witness validity is checked against
    the exact replay oracle (all wildcard instances must belong to the
    original denotation), and the transformed enumeration carries a
    completeness certificate, so [Safe] means the bounded relation
    really holds — and then Theorems 3–5 give the DRF guarantee for
    {e any} original, racy or not.  The converse direction is lossy by
    design: the relation is sufficient, not necessary, so a
    {!Counterexample} or {!Unknown} verdict only means "escalate to the
    exhaustive validator", never "reject" (the [auto] validator ladder
    in {!Safeopt_opt.Validate} does precisely that). *)

open Safeopt_trace
open Safeopt_lang

type thread_verdict =
  | Identical  (** the thread is syntactically unchanged *)
  | Refines of { traces : int }
      (** every transformed trace ([traces] of them) has an
          elimination-then-reordering witness into the original
          thread's complete bounded denotation *)
  | Fails of Trace.t
      (** a transformed trace with no witness — a structured
          counterexample (the original enumeration was complete, so the
          trace is genuinely unwitnessed within the bound) *)
  | Bounded of string
      (** an enumeration was truncated ([max_len]/[max_traces]), so no
          verdict for this thread *)

val pp_thread_verdict : thread_verdict Fmt.t

type t = {
  blocked : string option;
      (** a structural precondition failed (thread count or volatile
          annotations changed) — no per-thread analysis was run *)
  threads : (Thread_id.t * thread_verdict) list;
  max_len : int;  (** transformed-side trace length bound used *)
}

val pp : t Fmt.t

type verdict =
  | Safe
      (** every thread refines: the transformation satisfies Lemma 5's
          relation, hence the DRF guarantee (Theorems 3–5) *)
  | Counterexample of Thread_id.t * Trace.t
      (** a transformed thread trace with no witness *)
  | Unknown of string
      (** structural mismatch or truncated enumeration: escalate *)

val verdict : t -> verdict
(** Aggregate the per-thread verdicts: any {!Fails} wins (first such
    thread), else any {!Bounded} makes the result {!Unknown}, else
    {!Safe}. *)

val pp_verdict : verdict Fmt.t

val check :
  ?max_len:int ->
  ?max_traces:int ->
  original:Ast.program ->
  transformed:Ast.program ->
  unit ->
  t
(** Run the per-thread refinement analysis.  [max_len] (default 12)
    bounds transformed-side trace length; the original side is
    enumerated to [max_len + thread size + 1] so every witness that
    exists syntactically fits.  [max_traces] (default 50_000) bounds
    each per-thread enumeration; exceeding it yields {!Bounded}, not an
    exception.  Threads equal syntactically are {!Identical} without
    enumeration — the dominant fast path, since most passes touch one
    thread.

    A transformed trace that is already an original trace is witnessed
    by the identity and skips the search.

    When the {!Safeopt_obs.Metrics} registry is enabled the check
    publishes [refine.*] counters (checks, per-thread verdict tallies,
    aggregate verdicts, and the witness search's cost:
    [refine.traces_in_original] for the traces that skipped it and
    [refine.member_queries] for the membership queries it asked), and a
    ["refine"] tracer span wraps the analysis. *)

val witness :
  original:Ast.program ->
  transformed:Ast.program ->
  t ->
  Ast.program Safeopt_core.Witness.t option
(** A structured counterexample for a failed check: the program pair
    with the unwitnessed trace as {!Safeopt_core.Witness.Relation_failure}
    evidence.  [None] unless {!verdict} is {!Counterexample}. *)
