(** Noise-aware comparison of two BENCH_*.json files: the engine behind
    [drfopt bench diff old.json new.json], CI's perf gate.

    Schema-agnostic: both documents are walked in parallel and
    comparable points are extracted wherever the harness recognises one
    — an object with ["units_per_sec"] compares by rate (higher is
    better; rates are reps-independent, so a quick run compares cleanly
    against a committed full run), an object with only ["wall_s"]
    compares by wall (lower is better), and every boolean field is a
    claim whose [true → false] transition is a regression regardless of
    thresholds.  Arrays of named objects pair by ["name"], not index.
    The ["host"] block ({!Bench.write}) yields no point; when the two
    hosts differ in ["reps"] or ["quick"], walls are not compared
    (status {!Reps_differ}), only rates and claims.

    Noise: a numeric point whose wall is under [min_wall] (default
    0.05 s) on both sides is skipped; a surviving point regresses when
    its relative delta in the bad direction exceeds [threshold]
    (default 0.25). *)

type dir = Lower_better | Higher_better

type status =
  | Ok_same
  | Improved of float  (** relative delta in the good direction *)
  | Regressed of float  (** relative delta in the bad direction *)
  | Noise  (** both walls under the floor; not compared *)
  | Reps_differ  (** a wall from runs of different reps; not compared *)
  | Claim_broken  (** boolean [true] in old, [false] in new *)

type row = {
  r_path : string;  (** dotted path, named array items as [k[name]] *)
  r_old : float;
  r_new : float;
  r_dir : dir;
  r_status : status;
}

type t = { rows : row list; compared : int; regressions : int }

val default_threshold : float
(** 0.25 — a quarter in the bad direction. *)

val default_min_wall : float
(** 0.05 s. *)

val diff :
  ?threshold:float ->
  ?min_wall:float ->
  old_json:Json.t ->
  new_json:Json.t ->
  unit ->
  (t, string) result
(** [Error] when the two documents share no comparable point. *)

val diff_files :
  ?threshold:float -> ?min_wall:float -> string -> string -> (t, string) result
(** [diff_files old_path new_path]: read, parse, {!diff}. *)

val regressed : t -> bool
(** Any [Regressed] or [Claim_broken] row — the non-zero-exit signal. *)

val pp : Format.formatter -> t -> unit
(** One row per point with old/new values and a verdict, then a
    [N compared, M regressions] summary line. *)
