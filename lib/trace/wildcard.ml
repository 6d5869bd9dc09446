type elt = Concrete of Action.t | Wild_read of Location.t
type t = elt list

let equal_elt a b =
  match (a, b) with
  | Concrete x, Concrete y -> Action.equal x y
  | Wild_read l, Wild_read l' -> Location.equal l l'
  | (Concrete _ | Wild_read _), _ -> false

let compare_elt a b =
  match (a, b) with
  | Concrete x, Concrete y -> Action.compare x y
  | Wild_read l, Wild_read l' -> Location.compare l l'
  | Concrete _, Wild_read _ -> -1
  | Wild_read _, Concrete _ -> 1

let equal = List.equal equal_elt
let compare = List.compare compare_elt

let hash_elt = function
  | Concrete a -> Action.hash a
  | Wild_read l -> Location.hash l

let hash t =
  List.fold_left (fun h e -> ((h * 65599) + hash_elt e) land max_int) 0 t

let pp_elt ppf = function
  | Concrete a -> Action.pp ppf a
  | Wild_read l -> Fmt.pf ppf "R[%a=*]" Location.pp l

let pp = Fmt.(brackets (list ~sep:semi pp_elt))
let to_string = Fmt.to_to_string pp
let of_trace t = List.map (fun a -> Concrete a) t
let is_concrete t = List.for_all (function Concrete _ -> true | _ -> false) t

let to_trace t =
  if is_concrete t then
    Some (List.filter_map (function Concrete a -> Some a | _ -> None) t)
  else None

let length = List.length

let wildcard_indices t =
  List.mapi (fun i e -> (i, e)) t
  |> List.filter_map (function i, Wild_read _ -> Some i | _ -> None)

let wildcard_count t =
  List.fold_left
    (fun n -> function Wild_read _ -> n + 1 | Concrete _ -> n)
    0 t

let instantiate t vs =
  let rec go t vs acc =
    match (t, vs) with
    | [], [] -> Some (List.rev acc)
    | [], _ :: _ -> None
    | Concrete a :: t, vs -> go t vs (a :: acc)
    | Wild_read l :: t, v :: vs -> go t vs (Action.Read (l, v) :: acc)
    | Wild_read _ :: _, [] -> None
  in
  go t vs []

let instances ~universe t =
  let n = wildcard_count t in
  (* Enumerate all [universe]^n assignments lazily. *)
  let rec tuples k : Value.t list Seq.t =
    if k = 0 then Seq.return []
    else
      Seq.concat_map
        (fun rest -> List.to_seq universe |> Seq.map (fun v -> v :: rest))
        (tuples (k - 1))
  in
  tuples n
  |> Seq.filter_map (fun vs -> instantiate t vs)

let matches_action e a =
  match (e, a) with
  | Concrete x, _ -> Action.equal x a
  | Wild_read l, Action.Read (l', _) -> Location.equal l l'
  | Wild_read _, _ -> false

let is_instance w t =
  List.length w = List.length t && List.for_all2 matches_action w t

let action_of_elt ~default = function
  | Concrete a -> a
  | Wild_read l -> Action.Read (l, default)

let restrict t is =
  let is = List.sort_uniq Int.compare is in
  let rec go i t is =
    match (t, is) with
    | _, [] | [], _ -> []
    | a :: t, j :: is' ->
        if i = j then a :: go (i + 1) t is' else go (i + 1) t is
  in
  go 0 t is

let is_read = function
  | Concrete a -> Action.is_read a
  | Wild_read _ -> true

let is_write = function Concrete a -> Action.is_write a | Wild_read _ -> false
let is_rmw = function Concrete a -> Action.is_rmw a | Wild_read _ -> false

let is_access = function
  | Concrete a -> Action.is_access a
  | Wild_read _ -> true

let location = function
  | Concrete a -> Action.location a
  | Wild_read l -> Some l

let is_acquire vol = function
  | Concrete a -> Action.is_acquire vol a
  | Wild_read l -> Location.Volatile.mem vol l

let is_release vol = function
  | Concrete a -> Action.is_release vol a
  | Wild_read _ -> false

let is_sync vol e = is_acquire vol e || is_release vol e

let is_external = function
  | Concrete a -> Action.is_external a
  | Wild_read _ -> false

let is_sync_or_external vol e = is_sync vol e || is_external e

let is_normal_access vol = function
  | Concrete a -> Action.is_normal_access vol a
  | Wild_read l -> not (Location.Volatile.mem vol l)

let conflicting vol a b =
  match (location a, location b) with
  | Some la, Some lb ->
      Location.equal la lb
      && (not (Location.Volatile.mem vol la))
      && (is_write a || is_write b)
      && not (is_rmw a && is_rmw b)
  | _ -> false

let has_release_acquire_pair_between vol t lo hi =
  let indexed = List.mapi (fun i e -> (i, e)) t in
  let releases =
    List.filter_map
      (fun (i, e) -> if lo < i && i < hi && is_release vol e then Some i else None)
      indexed
  in
  let acquires =
    List.filter_map
      (fun (i, e) -> if lo < i && i < hi && is_acquire vol e then Some i else None)
      indexed
  in
  List.exists (fun r -> List.exists (fun a -> r < a) acquires) releases
