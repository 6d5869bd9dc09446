(** Traces: sequences of memory actions of a single thread (section 3).

    This module provides the list/indexing vocabulary the paper uses:
    prefixes, [dom]/[ldom], filtered sublists [t|S], and the
    well-formedness conditions imposed on members of a traceset
    (well-lockedness and properly-started-ness). *)

type t = Action.t list

val equal : t -> t -> bool
val compare : t -> t -> int

val hash : t -> int
(** Compatible with {!equal}; folds over every action, so long traces
    that differ only at the end still hash apart (the polymorphic
    [Hashtbl.hash] stops after a bounded prefix). *)

val pp : t Fmt.t
val to_string : t -> string

val length : t -> int

val nth : t -> int -> Action.t
(** [nth t i] is the action [t_i] (0-based).  @raise Invalid_argument if
    [i] is out of [dom t]. *)

val dom : t -> int list
(** [ldom t = [0; ...; length t - 1]], the indices of [t] in increasing
    order (the paper's [ldom]; [dom] is the same set). *)

val is_prefix : t -> t -> bool
(** [is_prefix t t'] iff [t <= t'], i.e. [t' = t ++ s] for some [s]. *)

val is_strict_prefix : t -> t -> bool

val prefixes : t -> t list
(** All prefixes of [t], shortest first, including [[]] and [t]. *)

val restrict : t -> int list -> t
(** [restrict t is] is the paper's [t|S]: the sublist of [t] whose
    indices are in [is].  Indices out of range are ignored; [is] need not
    be sorted (it is sorted and deduplicated internally). *)

val complement : t -> int list -> int list
(** [complement t is] is [dom t \ is], sorted increasing. *)

val filteri : (int -> Action.t -> bool) -> t -> t
(** The paper's map-filter [\[a <- t. P(a)\]] restricted to filtering. *)

val indices_where : (int -> Action.t -> bool) -> t -> int list

val well_locked : t -> bool
(** For each monitor [m], no prefix of [t] contains more unlocks of [m]
    than locks of [m] (section 3).  Checking every prefix (rather than
    just the whole trace) matches the paper's requirement on tracesets,
    which are prefix-closed. *)

val properly_started : t -> bool
(** A non-empty trace must begin with a start action (section 3). *)

val lock_depth : t -> Monitor.t -> int
(** Number of locks of [m] minus number of unlocks of [m] in [t]. *)

val locations : t -> Location.Set.t
(** All locations accessed by reads or writes in [t]. *)

val has_release_acquire_pair_between : Location.Volatile.t -> t -> int -> int -> bool
(** [has_release_acquire_pair_between vol t i j] iff there are indices
    [i < r < a < j] such that [t_r] is a release and [t_a] is an acquire
    (Definition 1's "release-acquire pair between [i] and [j]").

    Note: the release and the acquire need not be a matching pair; the
    definition only requires a release strictly followed by an acquire,
    both strictly between the endpoints. *)

val final_values : t -> Value.t Location.Map.t
(** The value last written to each location in [t] (used by tests and the
    TSO machine; not part of the paper's definitions). *)
