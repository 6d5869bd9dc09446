(** The span-tree profiler: self vs. total time, hot spans, collapsed
    stacks.

    Where {!Report} flattens spans into per-phase wall totals, this
    module rebuilds the span {e tree} (Begin/End matched by id, nested
    under [parent]) and computes, per span, its {e self} time — wall
    time minus the time spent inside child spans.  Two renderings:

    - {!pp_top}: the top-k hot spans aggregated by name, self time
      descending (name as tie-break, so the ordering is deterministic);
    - {!pp_collapsed}: flamegraph.pl's folded-stack format, one
      ["root;child;leaf <µs>"] line per distinct stack, weighted by
      self time in microseconds and sorted lexicographically.
      speedscope and flamegraph.pl both consume it directly.

    Unclosed spans (truncated traces) are clamped to the last timestamp
    in the stream so their time still shows up.  A span whose end event
    carries an [engine] attribute (the explorer's entry points: ["seq"],
    ["par"] or ["seq→par"]) is named [name[engine]] in both views. *)

type agg = {
  a_name : string;
  a_count : int;
  a_total : float;  (** wall seconds inside spans of this name *)
  a_self : float;  (** [a_total] minus time inside child spans *)
}

val aggregate : Event.t list -> agg list
(** Per-name rows, self time descending, ties broken by name. *)

val top_k : int -> Event.t list -> agg list
(** The first [k] rows of {!aggregate}. *)

val collapsed : Event.t list -> (string * int) list
(** Folded stacks: [(stack, self_µs)], stacks sorted lexicographically,
    zero-weight stacks omitted.  [';'] inside span names is rewritten
    to [':'] (the folded format reserves it). *)

val pp_top : ?k:int -> Format.formatter -> Event.t list -> unit
(** The [drfopt report --profile] table ([k] defaults to 10). *)

val pp_collapsed : Format.formatter -> Event.t list -> unit
(** The [drfopt report --flamegraph] output: one folded line per
    stack. *)
