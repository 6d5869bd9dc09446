(** Wildcard traces (section 4).

    A wildcard trace generalises a trace: each element is either a
    concrete action or a wildcard read [R\[l=*\]], expressing that the
    validity of the trace does not depend on the value read.  A concrete
    trace [t] is an {e instance} of a wildcard trace [w] if [t] is
    obtained by replacing every wildcard with some concrete value.  A
    wildcard trace {e belongs-to} a traceset [T] if {e all} its instances
    are in [T]. *)

type elt =
  | Concrete of Action.t
  | Wild_read of Location.t  (** [R\[l=*\]] *)

type t = elt list

val equal : t -> t -> bool
val compare : t -> t -> int

val hash : t -> int
(** Compatible with {!equal}; folds over every element, like
    {!Trace.hash}. *)

val pp : t Fmt.t
val pp_elt : elt Fmt.t
val to_string : t -> string

val of_trace : Trace.t -> t
(** Embed a concrete trace (no wildcards). *)

val is_concrete : t -> bool

val to_trace : t -> Trace.t option
(** [Some] the underlying trace if [t] has no wildcards. *)

val length : t -> int

val wildcard_indices : t -> int list
(** Indices of the wildcard reads, increasing. *)

val wildcard_count : t -> int

val instantiate : t -> Value.t list -> Trace.t option
(** [instantiate w vs] replaces the [i]-th wildcard with the [i]-th value
    of [vs].  [None] if [List.length vs <> wildcard_count w]. *)

val instances : universe:Value.t list -> t -> Trace.t Seq.t
(** All instances with each wildcard drawn independently from
    [universe].  There are [|universe| ^ wildcard_count] of them. *)

val is_instance : t -> Trace.t -> bool
(** [is_instance w t] iff [t] is obtained from [w] by filling wildcards
    with some values. *)

val matches_action : elt -> Action.t -> bool
(** [matches_action e a]: a concrete element matches an equal action; a
    wildcard [R\[l=*\]] matches any read of [l]. *)

val action_of_elt : default:Value.t -> elt -> Action.t
(** Resolve an element to an action, using [default] for wildcards. *)

val restrict : t -> int list -> t
(** As {!Trace.restrict}, on wildcard traces. *)

(** {1 Classification lifted to wildcard elements}

    A wildcard read of [l] classifies exactly as a read of [l] with an
    arbitrary value: it is an access to [l], an acquire iff [l] is
    volatile, and never a write, external, lock, unlock or start. *)

val is_read : elt -> bool
val is_write : elt -> bool

val is_rmw : elt -> bool
(** A concrete RMW element; a wildcard read never is. *)

val is_access : elt -> bool
val location : elt -> Location.t option
val is_acquire : Location.Volatile.t -> elt -> bool
val is_release : Location.Volatile.t -> elt -> bool
val is_sync : Location.Volatile.t -> elt -> bool
val is_sync_or_external : Location.Volatile.t -> elt -> bool
val is_external : elt -> bool
val is_normal_access : Location.Volatile.t -> elt -> bool

val conflicting : Location.Volatile.t -> elt -> elt -> bool
(** Conflict between wildcard elements: value-independent, so defined
    exactly as on actions (same non-volatile location, at least one
    write, not two RMWs). *)

val has_release_acquire_pair_between :
  Location.Volatile.t -> t -> int -> int -> bool
