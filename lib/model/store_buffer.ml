open Safeopt_trace
open Safeopt_exec
open Safeopt_lang

module type BUFFER = Explorer.BUFFER

(* The last (oldest) element of a newest-first list and the list
   without it, in one traversal. *)
let rec split_oldest = function
  | [] -> None
  | [ oldest ] -> Some (oldest, [])
  | x :: rest -> (
      match split_oldest rest with
      | Some (oldest, rest') -> Some (oldest, x :: rest')
      | None -> None)

module Tso_buffer = struct
  type t = (Location.t * Value.t) list (* newest first *)

  let name = "tso"
  let empty = []
  let is_empty b = b = []
  let push l v b = (l, v) :: b

  let forward b l =
    Option.map snd (List.find_opt (fun (l', _) -> Location.equal l l') b)

  let drains b =
    match split_oldest b with None -> [] | Some drain -> [ drain ]

  let digest intern b =
    List.concat_map (fun (l, v) -> [ intern l; v ]) b
end

module Pso_buffer = struct
  type t = Value.t list Location.Map.t (* newest first per location *)

  let name = "pso"
  let empty = Location.Map.empty
  let is_empty b = Location.Map.for_all (fun _ vs -> vs = []) b

  let push l v b =
    Location.Map.add l (v :: Option.value ~default:[] (Location.Map.find_opt l b)) b

  let forward b l =
    match Location.Map.find_opt l b with Some (v :: _) -> Some v | _ -> None

  let drains b =
    Location.Map.fold
      (fun l vs acc ->
        match split_oldest vs with
        | None -> acc
        | Some (oldest, vs') ->
            let b' =
              if vs' = [] then Location.Map.remove l b
              else Location.Map.add l vs' b
            in
            ((l, oldest), b') :: acc)
      b []

  let digest intern b =
    Location.Map.fold
      (fun l vs acc -> vs @ (List.length vs :: intern l :: acc))
      b []
end

module type MACHINE = sig
  val name : string
  val buffer : (module BUFFER)

  val behaviours :
    ?max_states:int ->
    ?stats:Explorer.stats ->
    ?jobs:int ->
    ?pool:Par.Pool.t ->
    Location.Volatile.t ->
    'ts System.t ->
    Behaviour.Set.t

  val program_behaviours :
    ?fuel:int ->
    ?max_states:int ->
    ?stats:Explorer.stats ->
    ?jobs:int ->
    ?pool:Par.Pool.t ->
    Ast.program ->
    Behaviour.Set.t
end

module Make (B : BUFFER) : MACHINE = struct
  let name = B.name
  let buffer = (module B : BUFFER)

  let behaviours ?max_states ?stats ?jobs ?pool vol sys =
    let sp =
      if Safeopt_obs.Tracer.enabled () then
        Safeopt_obs.Tracer.span
          ~attrs:[ ("model", Safeopt_obs.Event.Str B.name) ]
          (B.name ^ ".behaviours")
      else Safeopt_obs.Tracer.none
    in
    Fun.protect
      ~finally:(fun () -> Safeopt_obs.Tracer.close_span sp)
      (fun () ->
        Explorer.machine_behaviours ?max_states ?stats ?jobs ?pool buffer vol
          sys)

  let program_behaviours ?fuel ?max_states ?stats ?jobs ?pool
      (p : Ast.program) =
    behaviours ?max_states ?stats ?jobs ?pool p.Ast.volatile
      (Thread_system.make ?fuel p)
end

module Tso = Make (Tso_buffer)
module Pso = Make (Pso_buffer)
