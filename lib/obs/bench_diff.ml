(* Noise-aware comparison of two BENCH_*.json files: the engine behind
   `drfopt bench diff old.json new.json`.

   The harness is schema-agnostic: it walks both documents in parallel
   and extracts comparable *points* wherever it recognises one —

   - an object carrying "units_per_sec" compares by that rate (higher
     is better).  Rates are reps-independent, so a quick bench run
     (fewer reps, smaller walls) still compares cleanly against a
     committed full run;
   - an object carrying only "wall_s" compares by wall (lower is
     better) — e.g. the per-phase tables.  A wall sums every rep, so
     it is compared only when both files' "host" blocks agree on
     "reps" and "quick"; otherwise it is listed as skipped;
   - every boolean field is a claim: true in the old file and false in
     the new one is a regression regardless of thresholds.  The
     "host" block is the run's fingerprint, not a measurement, so none
     of its fields is a point.

   Arrays of named objects ("experiments": [{"name": ...}]) pair by
   name, not index, so reordering or appending experiments never
   misaligns the comparison.

   Noise handling: a numeric point whose measured wall is below
   [min_wall] on both sides is skipped — sub-floor timings are scheduler
   noise, and CI runners are noisy machines.  A surviving point
   regresses when its relative delta in the bad direction exceeds
   [threshold]. *)

type dir = Lower_better | Higher_better

type status =
  | Ok_same
  | Improved of float  (** relative delta in the good direction *)
  | Regressed of float  (** relative delta in the bad direction *)
  | Noise  (** both walls under the floor; not compared *)
  | Reps_differ  (** a wall from runs of different reps; not compared *)
  | Claim_broken  (** boolean true -> false *)

type row = {
  r_path : string;
  r_old : float;
  r_new : float;
  r_dir : dir;
  r_status : status;
}

type t = { rows : row list; compared : int; regressions : int }

(* ------------------------------------------------------------------ *)
(* Point extraction                                                    *)
(* ------------------------------------------------------------------ *)

type point =
  | Num of { dir : dir; value : float; wall : float }
  | Claim of bool

let num j = match Json.to_float j with Some f -> Some f | None -> None

let obj_field name fields =
  Option.bind (List.assoc_opt name fields) num

(* Depth-first extraction: (path, point) in document order. *)
let rec points path (j : Json.t) acc =
  match j with
  | Json.Obj fields ->
      let here p = if path = "" then p else path ^ "." ^ p in
      let acc =
        match
          (obj_field "units_per_sec" fields, obj_field "wall_s" fields)
        with
        | Some rate, wall ->
            (* rate point; the wall (when present) is only the noise
               gate.  A missing wall is treated as trustworthy. *)
            ( here "units_per_sec",
              Num
                {
                  dir = Higher_better;
                  value = rate;
                  wall = Option.value ~default:Float.infinity wall;
                } )
            :: acc
        | None, Some wall ->
            (here "wall_s", Num { dir = Lower_better; value = wall; wall })
            :: acc
        | None, None -> acc
      in
      List.fold_left
        (fun acc (k, v) ->
          match v with
          | Json.Bool b -> (here k, Claim b) :: acc
          | Json.Obj _ -> points (here k) v acc
          | Json.List items ->
              List.fold_left
                (fun acc item ->
                  match item with
                  | Json.Obj ifields -> (
                      match List.assoc_opt "name" ifields with
                      | Some (Json.String n) ->
                          points (here k ^ "[" ^ n ^ "]") item acc
                      | _ -> acc)
                  | _ -> acc)
                acc items
          | _ -> acc)
        acc fields
  | _ -> acc

let extract j =
  let j =
    match j with
    | Json.Obj fields -> Json.Obj (List.remove_assoc "host" fields)
    | j -> j
  in
  List.rev (points "" j [])

(* ------------------------------------------------------------------ *)
(* Comparison                                                          *)
(* ------------------------------------------------------------------ *)

let default_threshold = 0.25
let default_min_wall = 0.05

let compare_points ~threshold ~min_wall ~alike olds news =
  let rows =
    List.filter_map
      (fun (path, old_pt) ->
        match (old_pt, List.assoc_opt path news) with
        | _, None -> None
        | Claim old_b, Some (Claim new_b) ->
            let status =
              if old_b && not new_b then Claim_broken else Ok_same
            in
            Some
              {
                r_path = path;
                r_old = (if old_b then 1. else 0.);
                r_new = (if new_b then 1. else 0.);
                r_dir = Higher_better;
                r_status = status;
              }
        | Num o, Some (Num n) when o.dir = n.dir ->
            let status =
              if o.dir = Lower_better && not alike then Reps_differ
              else if Float.max o.wall n.wall < min_wall then Noise
              else if o.value = 0. then Ok_same
              else
                let bad =
                  match o.dir with
                  | Lower_better -> (n.value -. o.value) /. o.value
                  | Higher_better -> (o.value -. n.value) /. o.value
                in
                if bad > threshold then Regressed bad
                else if bad < -.threshold then Improved (-.bad)
                else Ok_same
            in
            Some
              {
                r_path = path;
                r_old = o.value;
                r_new = n.value;
                r_dir = o.dir;
                r_status = status;
              }
        | _ -> None)
      olds
  in
  let compared =
    List.length
      (List.filter
         (fun r -> r.r_status <> Noise && r.r_status <> Reps_differ)
         rows)
  in
  let regressions =
    List.length
      (List.filter
         (fun r ->
           match r.r_status with
           | Regressed _ | Claim_broken -> true
           | _ -> false)
         rows)
  in
  { rows; compared; regressions }

let diff ?(threshold = default_threshold) ?(min_wall = default_min_wall)
    ~old_json ~new_json () =
  let olds = extract old_json and news = extract new_json in
  let host j k = Option.bind (Json.member "host" j) (Json.member k) in
  let alike =
    List.for_all
      (fun k -> Option.equal Json.equal (host old_json k) (host new_json k))
      [ "reps"; "quick" ]
  in
  let t = compare_points ~threshold ~min_wall ~alike olds news in
  if t.compared = 0 then
    Error "no comparable points (are these the same benchmark's files?)"
  else Ok t

let read_file path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let len = in_channel_length ic in
      let s = really_input_string ic len in
      Result.map_error (fun e -> path ^ ": " ^ e) (Json.of_string s))

let diff_files ?threshold ?min_wall old_path new_path =
  match (read_file old_path, read_file new_path) with
  | Error e, _ | _, Error e -> Error e
  | Ok old_json, Ok new_json -> diff ?threshold ?min_wall ~old_json ~new_json ()

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

let regressed t = t.regressions > 0

let value_string dir v =
  match dir with
  | Lower_better -> Printf.sprintf "%.4fs" v
  | Higher_better ->
      if Float.is_integer v && Float.abs v < 1e15 then
        Printf.sprintf "%.0f" v
      else Printf.sprintf "%.2f" v

let pp ppf t =
  let open Format in
  fprintf ppf "  %-44s %12s %12s  %s@." "metric" "old" "new" "verdict";
  List.iter
    (fun r ->
      let verdict =
        match r.r_status with
        | Ok_same -> "ok"
        | Improved d -> Printf.sprintf "improved %.0f%%" (d *. 100.)
        | Regressed d -> Printf.sprintf "REGRESSED %.0f%%" (d *. 100.)
        | Noise -> "skipped (noise floor)"
        | Reps_differ -> "skipped (reps differ)"
        | Claim_broken -> "CLAIM BROKEN"
      in
      fprintf ppf "  %-44s %12s %12s  %s@." r.r_path
        (value_string r.r_dir r.r_old)
        (value_string r.r_dir r.r_new)
        verdict)
    t.rows;
  fprintf ppf "%d compared, %d regression%s@." t.compared t.regressions
    (if t.regressions = 1 then "" else "s")
