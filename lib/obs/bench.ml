type gate = Always | Cores of int

let cores = Domain.recommended_domain_count ()

(* The current section's claims, newest first, as they go in its file. *)
let claims = ref []
let failed = ref false

let section title =
  claims := [];
  Format.printf "@.=== %s ===@." title

let claim ?(gate = Always) name holds =
  let applies = match gate with Always -> true | Cores n -> cores >= n in
  let gate_str =
    match gate with Always -> "always" | Cores n -> Printf.sprintf "cores>=%d" n
  in
  claims :=
    Json.Obj
      [
        ("name", Json.String name);
        ("holds", if applies then Json.Bool holds else Json.Null);
        ("gate", Json.String gate_str);
      ]
    :: !claims;
  if applies && not holds then failed := true;
  Format.printf "  %-58s %s@." name
    (if not applies then
       Printf.sprintf "SKIPPED (gate %s, host has %d)" gate_str cores
     else if holds then "OK"
     else "MISMATCH")

let status () = if !failed then 1 else 0

(* The working directory's commit, "-dirty" when it has local changes;
   "unknown" outside a git checkout. *)
let commit () =
  match Unix.open_process_in "git describe --always --dirty 2>/dev/null" with
  | exception Unix.Unix_error _ -> "unknown"
  | ic -> (
      let line = try input_line ic with End_of_file -> "" in
      match Unix.close_process_in ic with
      | Unix.WEXITED 0 when line <> "" -> line
      | _ -> "unknown")

let rec finite = function
  | Json.Float f -> Float.is_finite f
  | Json.List l -> List.for_all finite l
  | Json.Obj fields -> List.for_all (fun (_, v) -> finite v) fields
  | _ -> true

let render fields =
  let key k = Json.to_string (Json.String k) ^ ": " in
  let lines indent f items =
    String.concat ",\n" (List.map (fun x -> indent ^ f x) items)
  in
  let field (k, v) =
    key k
    ^
    match v with
    | Json.List (_ :: _ as items) ->
        "[\n" ^ lines "    " Json.to_string items ^ "\n  ]"
    | Json.Obj (_ :: _ as members) ->
        "{\n"
        ^ lines "    " (fun (k, v) -> key k ^ Json.to_string v) members
        ^ "\n  }"
    | v -> Json.to_string v
  in
  "{\n" ^ lines "  " field fields ^ "\n}\n"

let write ~file ~schema ~reps ~quick fields =
  let host =
    Json.Obj
      [
        ("cores", Json.Int cores);
        ("ocaml", Json.String Sys.ocaml_version);
        ("commit", Json.String (commit ()));
        ("reps", Json.Int reps);
        ("quick", Json.Bool quick);
      ]
  in
  let doc =
    (("schema", Json.String schema) :: ("host", host) :: fields)
    @ [ ("claims", Json.List (List.rev !claims)) ]
  in
  if not (finite (Json.Obj doc)) then
    failwith ("bench: refusing to write " ^ file ^ ": non-finite number");
  Out_channel.with_open_text file (fun oc -> output_string oc (render doc));
  Format.printf "  wrote %s@." file
