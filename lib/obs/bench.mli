(** The harness behind [bench/main.exe]: claims, the one BENCH_*.json
    writer, and the run's exit status.

    A claim is a boolean the run asserts about a paper figure or a
    measurement, and every claim gates: {!status} is 1 when a claim
    failed on a host that meets its {!gate}.  On a host that does not
    meet it, the claim is printed and written as skipped
    ([holds: null]), never dropped.

    A BENCH file is the mode's own fields between a ["host"]
    fingerprint and the ["claims"] of its section; {!Bench_diff} reads
    both. *)

type gate =
  | Always
  | Cores of int  (** the claim needs a host with at least this many cores *)

val section : string -> unit
(** Print a section header.  The claims recorded after it are the ones
    the next {!write} carries. *)

val claim : ?gate:gate -> string -> bool -> unit
(** [claim name holds] records and prints one claim; [gate] defaults to
    {!Always}. *)

val write :
  file:string ->
  schema:string ->
  reps:int ->
  quick:bool ->
  (string * Json.t) list ->
  unit
(** Write [file] as one JSON object: ["schema"], then ["host"]
    ([{cores, ocaml, commit, reps, quick}]), then the given fields, then
    ["claims"] ([[{name, holds, gate}]]) of the current section.  Each
    top-level field, and each element of a top-level array or object,
    goes on its own line, so committed baselines diff line by line.
    Raises [Failure] instead of writing a non-finite number. *)

val status : unit -> int
(** 1 if a claim failed on a host that meets its gate since the program
    started, 0 otherwise. *)
