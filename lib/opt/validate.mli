(** Program-level validation of transformations (the tool face of
    Theorems 1-5).

    Given an original program and a candidate transformation of it,
    check by exhaustive enumeration:
    - data race freedom of both programs,
    - inclusion of observable behaviours, and
    - optionally, that the transformation is justified semantically: the
      bounded denotation of the transformed program is related to the
      original's by elimination, reordering, or elimination followed by
      reordering (Lemma 5's composition).

    The headline predicate {!ok} is the DRF guarantee: {e if} the
    original is DRF, the transformed program must be DRF and add no
    behaviours.  For racy originals the guarantee is vacuous, but
    {!report.new_behaviour} still tells you what changed.

    Every check is parameterised by a {!Safeopt_model.Memory_model.t}
    (default {!Safeopt_model.Memory_model.Sc}).  The model supplies
    both the behaviour sets being compared {e and} the safety
    criterion, via its racy-behaviour semantics: SC catches fire on
    races (the DRF-guarantee criterion above), while the hardware
    models give racy programs defined machine behaviour, so under
    TSO/PSO {!ok} is plain behaviour inclusion. *)

open Safeopt_trace
open Safeopt_lang
open Safeopt_exec

type relation =
  | Unchecked
  | Elimination
  | Reordering
  | Elimination_then_reordering

val pp_relation : relation Fmt.t

type report = {
  model : Safeopt_model.Memory_model.t;
      (** the model whose behaviours were compared and whose criterion
          {!ok} applies *)
  original_drf : bool;
  transformed_drf : bool;
  new_behaviour : Behaviour.t option;
      (** a behaviour of the transformed program the original lacks,
          under {!report.model} *)
  race_witness : Interleaving.t option;
      (** a racy execution of the transformed program when the original
          is DRF but the transformed is not *)
  relation : relation;
  relation_holds : bool option;  (** [None] when [Unchecked] *)
  relation_counterexample : Trace.t option;
      (** when a relation check fails: a transformed trace with no
          witness (no eliminable embedding / no de-permuting function) *)
}

val pp_report : report Fmt.t

val ok : report -> bool
(** Under a catch-fire model: [original_drf] implies
    ([transformed_drf] and no new behaviour).  Under a hardware model:
    no new behaviour, full stop.  In both cases the relation check, if
    performed, must have succeeded. *)

val behaviours_ok : report -> bool
(** The model-criterion part alone (no relation check). *)

val validate :
  ?fuel:int ->
  ?max_states:int ->
  ?stats:Explorer.stats ->
  ?jobs:int ->
  ?pool:Par.Pool.t ->
  ?model:Safeopt_model.Memory_model.t ->
  original:Ast.program ->
  transformed:Ast.program ->
  unit ->
  report
(** Interpreter-level checks only ([relation = Unchecked]).  [model]
    (default [Sc]) selects the backend whose behaviour sets are
    compared; the DRF legs are SC questions under every model.

    Both DRF questions first try the static lockset certificate
    ({!Safeopt_analysis.Static_race.certified_drf}); only when the
    analysis reports potential races does the exhaustive interleaving
    enumeration run.  [jobs]/[pool] parallelise those enumerations at
    the state-space level past {!Explorer.steal_after} states; the
    report is unchanged. *)

val drf_fast :
  ?fuel:int ->
  ?max_states:int ->
  ?stats:Explorer.stats ->
  ?jobs:int ->
  ?pool:Par.Pool.t ->
  Ast.program ->
  bool
(** [is_drf] with the static fast path: a lockset certificate first,
    enumeration only as fallback. *)

val find_race_fast :
  ?fuel:int ->
  ?max_states:int ->
  ?stats:Explorer.stats ->
  ?jobs:int ->
  ?pool:Par.Pool.t ->
  Ast.program ->
  Interleaving.t option
(** [find_race] with the static fast path: returns [None] without
    enumerating when the program is statically certified DRF. *)

val validate_batch :
  ?fuel:int ->
  ?max_states:int ->
  ?stats:Explorer.stats ->
  ?jobs:int ->
  ?pool:Par.Pool.t ->
  ?model:Safeopt_model.Memory_model.t ->
  (Ast.program * Ast.program) list ->
  report list
(** Validate many (original, transformed) pairs, sharded across the
    pool (one pair per job, claimed dynamically).  Reports come back in
    input order and are identical to [List.map] of {!validate}; each
    job accumulates into a private stats record, merged into [stats]
    after the join. *)

val witness :
  original:Ast.program ->
  transformed:Ast.program ->
  report ->
  Ast.program Safeopt_core.Witness.t option
(** Turn a failed report into a structured counterexample: the program
    pair plus the strongest evidence it carries (an introduced race,
    then a new behaviour, then an unwitnessed trace from a relation
    check).  [None] when the report satisfies {!ok} — or in the
    degenerate case where it fails but records no concrete evidence
    (e.g. a racy original, where the DRF guarantee is vacuous). *)

(** {1 The validator escalation ladder}

    Three ways to decide the DRF guarantee for a program pair, ordered
    by cost:

    - {e static}: syntactic program equality (and, inside the
      exhaustive rung, the lockset certificate for the DRF legs) — no
      semantics at all;
    - {e refine}: the thread-local refinement analysis
      ({!Safeopt_analysis.Refine}) — per-thread traceset matching,
      no interleavings;
    - {e exhaustive}: the interpreter-level differential validation
      ({!validate}) — the full interleaving enumeration.

    [Auto] climbs the ladder and stops at the first rung that decides.
    A refine counterexample does {e not} reject in [Auto] — the
    traceset relation is sufficient for safety but not necessary — it
    escalates, so [Auto]'s verdict always equals [Exhaustive]'s.
    Forcing a single rung reports inconclusive when it cannot decide.

    Under a hardware model the static rung still applies, but the
    refinement rung is an SC-sound argument: [Auto] only uses it when
    both programs carry a static DRF certificate (their model
    behaviours then coincide with SC by the DRF guarantee) and
    otherwise escalates to model-exhaustive enumeration, so its
    verdict still always equals [Exhaustive]'s under that model;
    forcing [Refinement] reports inconclusive. *)

type validator = Static | Refinement | Exhaustive | Auto

val pp_validator : validator Fmt.t

type method_ =
  | Equal_programs  (** decided by syntactic equality (static rung) *)
  | Refined  (** decided by per-thread refinement *)
  | Enumerated  (** decided by exhaustive enumeration *)
  | Inconclusive  (** a forced rung could not decide *)

type outcome = {
  out_validator : validator;  (** the mode that was requested *)
  out_method : method_;  (** the rung that produced the verdict *)
  out_ok : bool;
      (** the DRF guarantee holds ([Inconclusive] is never ok) *)
  out_refine : Safeopt_analysis.Refine.t option;
      (** the refinement analysis, whenever it ran *)
  out_report : report option;
      (** the exhaustive report, iff the enumeration ran *)
  out_note : string option;  (** why a rung was skipped or escalated *)
}

val method_tag : outcome -> string
(** Short provenance tag: ["static"], ["refine"], ["exhaustive"] or
    ["inconclusive"]. *)

val outcome_ok : outcome -> bool

val outcome_witness :
  original:Ast.program ->
  transformed:Ast.program ->
  outcome ->
  Ast.program Safeopt_core.Witness.t option
(** Structured counterexample for a failed outcome: from the
    exhaustive report when the enumeration ran ({!witness}), otherwise
    from the refine counterexample
    ({!Safeopt_analysis.Refine.witness}). *)

val pp_outcome : outcome Fmt.t

val run_validator :
  ?fuel:int ->
  ?max_states:int ->
  ?stats:Explorer.stats ->
  ?jobs:int ->
  ?pool:Par.Pool.t ->
  ?max_len:int ->
  ?max_traces:int ->
  ?model:Safeopt_model.Memory_model.t ->
  validator ->
  original:Ast.program ->
  transformed:Ast.program ->
  unit ->
  outcome
(** Decide the pair under the given mode and model.
    [max_len]/[max_traces] bound the refine rung's per-thread
    enumerations; [fuel], [max_states], [stats], [jobs], [pool]
    parameterise the exhaustive rung exactly as in {!validate}.  When
    the {!Safeopt_obs.Metrics} registry is enabled, publishes the
    fast-path hit-rate counters [validate.outcomes],
    [validate.static_hits], [validate.refine_hits],
    [validate.refine_misses] and [validate.exhaustive_runs], plus a
    per-model [validate.model.<name>] counter. *)

type chain_report = {
  pairwise : report list;  (** adjacent pairs, in order *)
  end_to_end : report;  (** first program vs last *)
}

val pp_chain_report : chain_report Fmt.t

val chain_ok : chain_report -> bool
(** Every pairwise report and the end-to-end report satisfy {!ok} —
    the paper's main composition result: a finite chain of safe
    transformations starting from a DRF program adds no behaviours. *)

val validate_chain :
  ?fuel:int ->
  ?max_states:int ->
  ?stats:Explorer.stats ->
  ?jobs:int ->
  ?pool:Par.Pool.t ->
  Ast.program list ->
  chain_report
(** Validate a chain of at least one program ([relation = Unchecked]
    per pair).  Each program's behaviours and race witness are computed
    once and shared between the pairwise and end-to-end reports; under
    [jobs]/[pool] the per-program enumerations shard across domains.
    @raise Invalid_argument on an empty chain. *)

val validate_semantic :
  ?fuel:int ->
  ?max_states:int ->
  ?stats:Explorer.stats ->
  ?jobs:int ->
  ?pool:Par.Pool.t ->
  ?max_len:int ->
  relation:relation ->
  original:Ast.program ->
  transformed:Ast.program ->
  unit ->
  report
(** Additionally check the claimed traceset relation on the programs'
    bounded denotations ([max_len], default 12, bounds trace length;
    both denotations use their joint value universe).  Expensive —
    intended for litmus-sized programs. *)
