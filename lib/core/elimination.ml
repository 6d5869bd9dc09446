open Safeopt_trace

type witness = { wild : Wildcard.t; kept : int list }

let pp_witness ppf w =
  Fmt.pf ppf "@[<h>%a keeping %a@]" Wildcard.pp w.wild
    Fmt.(brackets (list ~sep:comma int))
    w.kept

let check_witness ?(proper = false) vol ~transformed w =
  let n = Wildcard.length w.wild in
  let kept = List.sort_uniq Int.compare w.kept in
  let dropped =
    List.filter (fun i -> not (List.mem i kept)) (List.init n Fun.id)
  in
  let elim_ok =
    let p =
      if proper then Eliminable.properly_eliminable else Eliminable.eliminable
    in
    List.for_all (fun i -> p vol w.wild i) dropped
  in
  let restricted = Wildcard.restrict w.wild kept in
  elim_ok
  && List.length restricted = Trace.length transformed
  && List.for_all2
       (fun e a ->
         match e with
         | Wildcard.Concrete a' -> Action.equal a a'
         | Wildcard.Wild_read _ -> false)
       restricted transformed

let embeddings ?(proper = false) vol ~transformed ~wild =
  (* DFS: embed [transformed] as a concrete subsequence of [wild]; every
     skipped position must be eliminable.  Eliminability of a position
     depends only on [wild], so it is precomputed. *)
  let n = Wildcard.length wild in
  let arr = Array.of_list wild in
  let elim =
    let p =
      if proper then Eliminable.properly_eliminable else Eliminable.eliminable
    in
    Array.init n (fun i -> p vol wild i)
  in
  let results = ref [] in
  let rec go i rest kept_rev =
    match rest with
    | [] ->
        (* Remaining positions must all be eliminable. *)
        let rec tail_ok j = j >= n || (elim.(j) && tail_ok (j + 1)) in
        if tail_ok i then results := List.rev kept_rev :: !results
    | a :: rest' ->
        if i >= n then ()
        else begin
          (* Option 1: match position i. *)
          (match arr.(i) with
          | Wildcard.Concrete a' when Action.equal a a' ->
              go (i + 1) rest' (i :: kept_rev)
          | _ -> ());
          (* Option 2: skip position i if eliminable. *)
          if elim.(i) then go (i + 1) rest kept_rev
        end
  in
  go 0 transformed [];
  List.rev !results

let trace_elimination_of ?proper vol ~transformed ~wild =
  match embeddings ?proper vol ~transformed ~wild with
  | [] -> None
  | s :: _ -> Some s

let generalisations ~belongs_to t =
  (* Replace subsets of read positions by wildcards, keeping only the
     generalisations all of whose instances stay in the traceset. *)
  let n = List.length t in
  let read_positions =
    List.filter (fun i -> Action.is_read (List.nth t i)) (List.init n Fun.id)
  in
  let rec subsets = function
    | [] -> [ [] ]
    | x :: rest ->
        let s = subsets rest in
        s @ List.map (fun ys -> x :: ys) s
  in
  let wildcardise positions =
    List.mapi
      (fun i a ->
        if List.mem i positions then
          match a with
          | Action.Read (l, _) -> Wildcard.Wild_read l
          | _ -> assert false
        else Wildcard.Concrete a)
      t
  in
  subsets read_positions
  |> List.map wildcardise
  |> List.filter belongs_to

let rec is_subsequence small big =
  match (small, big) with
  | [], _ -> true
  | _, [] -> false
  | a :: small', b :: big' ->
      if Action.equal a b then is_subsequence small' big'
      else is_subsequence small big'

let find_witness ?proper vol ~belongs_to ~candidates ~transformed =
  (* Being a subsequence of the candidate is necessary for a witness
     (see the interface), so others are skipped before any belongs-to
     check. *)
  let candidates =
    List.filter (fun t -> is_subsequence transformed t) candidates
    |> List.sort (fun a b -> Int.compare (Trace.length a) (Trace.length b))
  in
  List.find_map
    (fun t ->
      (* Fast path: try the fully concrete trace first. *)
      let concrete = Wildcard.of_trace t in
      let try_wild wild =
        match trace_elimination_of ?proper vol ~transformed ~wild with
        | Some kept -> Some { wild; kept }
        | None -> None
      in
      match (if belongs_to concrete then try_wild concrete else None) with
      | Some w -> Some w
      | None ->
          generalisations ~belongs_to t
          |> List.find_map (fun wild ->
                 if Wildcard.wildcard_count wild = 0 then None
                 else try_wild wild))
    candidates

let is_member ?proper vol ~original ~universe t =
  let belongs_to w = Traceset.belongs_to original w ~universe in
  let candidates = Traceset.to_list original in
  Option.is_some
    (find_witness ?proper vol ~belongs_to ~candidates ~transformed:t)

module Trace_tbl = Hashtbl.Make (Trace)
module Wildcard_tbl = Hashtbl.Make (Wildcard)

let memoised_member ?proper vol ~original ~universe =
  (* Two memo tables: one for closure-membership queries, one for the
     belongs-to checks underneath them.  The same wildcard
     generalisations recur across queries (every query walks the same
     candidate list), so caching belongs-to is the bigger win.  Both
     are keyed by the values themselves, under structural equality and
     a hash over every action. *)
  let member_memo = Trace_tbl.create 97 in
  let belongs_memo = Wildcard_tbl.create 97 in
  let belongs_to w =
    match Wildcard_tbl.find_opt belongs_memo w with
    | Some b -> b
    | None ->
        let b = Traceset.belongs_to original w ~universe in
        Wildcard_tbl.add belongs_memo w b;
        b
  in
  let candidates = Traceset.to_list original in
  fun t ->
    match Trace_tbl.find_opt member_memo t with
    | Some b -> b
    | None ->
        let b =
          Option.is_some
            (find_witness ?proper vol ~belongs_to ~candidates ~transformed:t)
        in
        Trace_tbl.add member_memo t b;
        b

let find_unwitnessed ?proper vol ~original ~universe ~transformed =
  List.find_opt
    (fun t -> not (is_member ?proper vol ~original ~universe t))
    (Traceset.to_list transformed)

let is_elimination ?proper vol ~original ~universe ~transformed =
  Option.is_none (find_unwitnessed ?proper vol ~original ~universe ~transformed)
