open Safeopt_trace
open Safeopt_exec

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
