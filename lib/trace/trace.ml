type t = Action.t list

let equal = List.equal Action.equal
let compare = List.compare Action.compare

let hash t =
  List.fold_left (fun h a -> ((h * 65599) + Action.hash a) land max_int) 0 t

let pp = Fmt.(brackets (list ~sep:semi Action.pp))
let to_string = Fmt.to_to_string pp
let length = List.length

let nth t i =
  match List.nth_opt t i with
  | Some a -> a
  | None -> invalid_arg (Printf.sprintf "Trace.nth: index %d out of range" i)

let dom t = List.init (length t) Fun.id

let rec is_prefix t t' =
  match (t, t') with
  | [], _ -> true
  | _, [] -> false
  | a :: t, a' :: t' -> Action.equal a a' && is_prefix t t'

let is_strict_prefix t t' = length t < length t' && is_prefix t t'

let prefixes t =
  let rec go acc rev_pre = function
    | [] -> List.rev acc
    | a :: rest ->
        let rev_pre = a :: rev_pre in
        go (List.rev rev_pre :: acc) rev_pre rest
  in
  go [ [] ] [] t

let restrict t is =
  let is = List.sort_uniq Int.compare is in
  let rec go i t is =
    match (t, is) with
    | _, [] | [], _ -> []
    | a :: t, j :: is' ->
        if i = j then a :: go (i + 1) t is' else go (i + 1) t is
  in
  go 0 t is

let complement t is =
  let keep = List.sort_uniq Int.compare is in
  List.filter (fun i -> not (List.mem i keep)) (dom t)

let filteri p t =
  List.filteri (fun i a -> p i a) t

let indices_where p t =
  List.mapi (fun i a -> (i, a)) t
  |> List.filter (fun (i, a) -> p i a)
  |> List.map fst

let lock_depth t m =
  List.fold_left
    (fun d a ->
      match a with
      | Action.Lock m' when Monitor.equal m m' -> d + 1
      | Action.Unlock m' when Monitor.equal m m' -> d - 1
      | _ -> d)
    0 t

let well_locked t =
  (* Running lock counters must never go negative. *)
  let module M = Monitor.Map in
  let rec go depth = function
    | [] -> true
    | Action.Unlock m :: rest ->
        let d = Option.value ~default:0 (M.find_opt m depth) in
        d > 0 && go (M.add m (d - 1) depth) rest
    | Action.Lock m :: rest ->
        let d = Option.value ~default:0 (M.find_opt m depth) in
        go (M.add m (d + 1) depth) rest
    | _ :: rest -> go depth rest
  in
  go M.empty t

let properly_started = function
  | [] -> true
  | a :: _ -> Action.is_start a

let locations t =
  List.fold_left
    (fun acc a ->
      match Action.location a with
      | Some l -> Location.Set.add l acc
      | None -> acc)
    Location.Set.empty t

let has_release_acquire_pair_between vol t lo hi =
  let release_at = indices_where (fun i a -> lo < i && i < hi && Action.is_release vol a) t in
  let acquire_at = indices_where (fun i a -> lo < i && i < hi && Action.is_acquire vol a) t in
  List.exists (fun r -> List.exists (fun a -> r < a) acquire_at) release_at

let final_values t =
  List.fold_left
    (fun m a ->
      match a with
      | Action.Write (l, v) | Action.Rmw (l, _, v) -> Location.Map.add l v m
      | _ -> m)
    Location.Map.empty t
