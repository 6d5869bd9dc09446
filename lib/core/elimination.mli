(** Semantic eliminations (paper, section 4).

    A trace [t'] is an {e elimination} of a wildcard trace [t] if
    [t' = t|S] for some [S] whose complement is eliminable in [t]
    (Definition 1).  A traceset [T'] is an elimination of a traceset
    [T] if every [t' in T'] is an elimination of some wildcard trace
    that belongs-to [T].

    Witnesses are explicit: a witness for [t'] is the wildcard trace
    [t] together with the kept index set [S]. *)

open Safeopt_trace

type witness = {
  wild : Wildcard.t;  (** the wildcard trace [t] belonging-to [T] *)
  kept : int list;  (** [S], increasing; [t' = t|S] *)
}

val pp_witness : witness Fmt.t

val check_witness :
  ?proper:bool ->
  Location.Volatile.t ->
  transformed:Trace.t ->
  witness ->
  bool
(** Is the witness valid for [transformed] — i.e. [transformed =
    wild|kept] and every dropped index eliminable (properly eliminable
    if [proper], section 6.1)?  Does {e not} check belongs-to. *)

val embeddings :
  ?proper:bool ->
  Location.Volatile.t ->
  transformed:Trace.t ->
  wild:Wildcard.t ->
  int list list
(** All kept-sets [S] making [wild] a witness for [transformed]. *)

val trace_elimination_of :
  ?proper:bool ->
  Location.Volatile.t ->
  transformed:Trace.t ->
  wild:Wildcard.t ->
  int list option
(** The first embedding, if any. *)

val generalisations :
  belongs_to:(Wildcard.t -> bool) -> Trace.t -> Wildcard.t list
(** All wildcard traces obtained from a concrete trace by replacing
    some subset of its read positions with wildcards, that still belong
    to the original traceset (per the supplied oracle).  Exponential in
    the number of reads; intended for the bounded checkers. *)

val find_witness :
  ?proper:bool ->
  Location.Volatile.t ->
  belongs_to:(Wildcard.t -> bool) ->
  candidates:Trace.t list ->
  transformed:Trace.t ->
  witness option
(** Search for a witness for [transformed]: for every candidate
    original trace (typically the traces of [T]), shortest first, for
    every belongs-to generalisation, for every embedding.

    A candidate is tried only if [transformed] is a subsequence of it.
    That is necessary for a witness: an embedding keeps only concrete
    positions equal to the transformed actions, and a generalisation
    only turns concrete positions into wildcards.  Skipping the other
    candidates (and all their generalisations) leaves the first witness
    found unchanged. *)

val is_elimination :
  ?proper:bool ->
  Location.Volatile.t ->
  original:Traceset.t ->
  universe:Value.t list ->
  transformed:Traceset.t ->
  bool
(** Is [transformed] an elimination of [original] (every transformed
    trace has a witness)? *)

val find_unwitnessed :
  ?proper:bool ->
  Location.Volatile.t ->
  original:Traceset.t ->
  universe:Value.t list ->
  transformed:Traceset.t ->
  Trace.t option
(** The first transformed trace with no elimination witness — the
    diagnostic behind a negative {!is_elimination}. *)

val is_member :
  ?proper:bool ->
  Location.Volatile.t ->
  original:Traceset.t ->
  universe:Value.t list ->
  Trace.t ->
  bool
(** Membership in the {e elimination closure} of [original]: does the
    given trace have a witness?  Used as the intermediate-traceset
    oracle when checking syntactic reorderings (Lemma 5: syntactic
    reordering = semantic elimination followed by semantic
    reordering). *)

val memoised_member :
  ?proper:bool ->
  Location.Volatile.t ->
  original:Traceset.t ->
  universe:Value.t list ->
  Trace.t ->
  bool
(** A memoising elimination-closure membership oracle over a fixed
    [original] traceset, equivalent to {!is_member} query by query.
    Partially applying the named arguments yields a closure whose memo
    tables (membership verdicts and the belongs-to checks beneath them)
    are shared across queries — the shape every Lemma-5 reordering
    search wants, since [Reorder.find] probes the same intermediate
    traces over and over.  Used by the differential validator and the
    per-thread refinement checker. *)
