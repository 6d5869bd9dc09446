open Safeopt_trace
open Safeopt_lang
module Metrics = Safeopt_obs.Metrics
module Tracer = Safeopt_obs.Tracer
module Ev = Safeopt_obs.Event

type thread_verdict =
  | Identical
  | Refines of { traces : int }
  | Fails of Trace.t
  | Bounded of string

let pp_thread_verdict ppf = function
  | Identical -> Fmt.string ppf "identical"
  | Refines { traces } -> Fmt.pf ppf "refines (%d traces witnessed)" traces
  | Fails t -> Fmt.pf ppf "FAILS: unwitnessed trace %a" Trace.pp t
  | Bounded reason -> Fmt.pf ppf "inconclusive (%s)" reason

type t = {
  blocked : string option;
  threads : (Thread_id.t * thread_verdict) list;
  max_len : int;
}

let pp ppf r =
  match r.blocked with
  | Some reason -> Fmt.pf ppf "refinement not applicable: %s" reason
  | None ->
      Fmt.pf ppf "@[<v>%a@]"
        Fmt.(
          list ~sep:cut (fun ppf (tid, v) ->
              pf ppf "thread %a: %a" Thread_id.pp tid pp_thread_verdict v))
        r.threads

type verdict =
  | Safe
  | Counterexample of Thread_id.t * Trace.t
  | Unknown of string

let pp_verdict ppf = function
  | Safe -> Fmt.string ppf "SAFE (per-thread refinement)"
  | Counterexample (tid, t) ->
      Fmt.pf ppf "COUNTEREXAMPLE in thread %a: unwitnessed trace %a"
        Thread_id.pp tid Trace.pp t
  | Unknown reason -> Fmt.pf ppf "UNKNOWN (%s)" reason

let verdict r =
  match r.blocked with
  | Some reason -> Unknown reason
  | None -> (
      let fails =
        List.find_map
          (function tid, Fails t -> Some (tid, t) | _ -> None)
          r.threads
      in
      match fails with
      | Some (tid, t) -> Counterexample (tid, t)
      | None -> (
          let bounded =
            List.find_map
              (function
                | tid, Bounded reason ->
                    Some (Fmt.str "thread %a: %s" Thread_id.pp tid reason)
                | _ -> None)
              r.threads
          in
          match bounded with
          | Some reason -> Unknown reason
          | None -> Safe))

let count name v =
  if Metrics.enabled () then Metrics.add (Metrics.counter Metrics.global name) v

(* One thread: enumerate both single-thread denotations and match every
   transformed trace into the original's elimination closure via the
   reordering search (Lemma 5's composition).  A positive verdict needs
   the transformed enumeration to be complete — otherwise an unexplored
   longer trace could be unwitnessed; a negative verdict needs the
   original enumeration to be complete — otherwise the witness might
   live past the truncation. *)
let rec has_atomic_stmt = function
  | Ast.Atomic _ -> true
  | Ast.Block l -> List.exists has_atomic_stmt l
  | Ast.If (_, s1, s2) -> has_atomic_stmt s1 || has_atomic_stmt s2
  | Ast.While (_, s) -> has_atomic_stmt s
  | Ast.Store _ | Ast.Load _ | Ast.Move _ | Ast.Lock _ | Ast.Unlock _
  | Ast.Skip | Ast.Print _ ->
      false

let check_thread ~vol ~universe ~max_len ~max_traces tid torig ttrans =
  if Ast.equal_thread torig ttrans then Identical
  else if
    List.exists has_atomic_stmt torig || List.exists has_atomic_stmt ttrans
  then
    (* An RMW's written value is a function of the value read (e.g.
       [faa] adds), so tracesets over the literal-derived universe are
       not closed under updates and a per-thread comparison could be
       read-incomplete.  Escalate instead of guessing: [Bounded] makes
       the auto ladder fall through to the exhaustive product check,
       which needs no value universe. *)
    Bounded "thread performs atomic updates; universe not update-closed"
  else
    let ts_trans, trans_complete =
      Denote.thread_traces ~max_traces ~universe ~max_len ~tid ttrans
    in
    if not trans_complete then
      Bounded "transformed thread denotation truncated"
    else
      let orig_len = max_len + Ast.thread_size torig + 1 in
      let ts_orig, orig_complete =
        Denote.thread_traces ~max_traces ~universe ~max_len:orig_len ~tid torig
      in
      let member =
        Safeopt_core.Elimination.memoised_member vol ~original:ts_orig
          ~universe
      in
      let queries = ref 0 and in_original = ref 0 in
      let mem t =
        incr queries;
        member t
      in
      (* A trace already in the original is witnessed by the identity:
         the traceset is prefix-closed and the closure contains every
         member, so the search would only confirm it. *)
      let witnessed t =
        if Traceset.mem t ts_orig then begin
          incr in_original;
          true
        end
        else Option.is_some (Safeopt_core.Reorder.find vol t ~mem)
      in
      let unwitnessed =
        List.find_opt (fun t -> not (witnessed t)) (Traceset.to_list ts_trans)
      in
      count "refine.traces_in_original" !in_original;
      count "refine.member_queries" !queries;
      match unwitnessed with
      | None -> Refines { traces = Traceset.cardinal ts_trans }
      | Some cex ->
          if orig_complete then Fails cex
          else Bounded "original thread denotation truncated"

let check ?(max_len = 12) ?(max_traces = 50_000) ~original ~transformed () =
  count "refine.checks" 1;
  let sp = if Tracer.enabled () then Tracer.span "refine" else Tracer.none in
  let r =
    if
      List.length original.Ast.threads
      <> List.length transformed.Ast.threads
    then { blocked = Some "thread count changed"; threads = []; max_len }
    else if
      not
        (Location.Volatile.equal original.Ast.volatile
           transformed.Ast.volatile)
    then
      { blocked = Some "volatile annotations changed"; threads = []; max_len }
    else
      let universe = Denote.joint_universe [ original; transformed ] in
      let vol = original.Ast.volatile in
      let threads =
        List.mapi
          (fun tid (torig, ttrans) ->
            let v =
              check_thread ~vol ~universe ~max_len ~max_traces tid torig
                ttrans
            in
            (match v with
            | Identical -> count "refine.threads_identical" 1
            | Refines _ -> count "refine.threads_refined" 1
            | Fails _ -> count "refine.threads_failed" 1
            | Bounded _ -> count "refine.threads_bounded" 1);
            (tid, v))
          (List.combine original.Ast.threads transformed.Ast.threads)
      in
      { blocked = None; threads; max_len }
  in
  let tag =
    match verdict r with
    | Safe ->
        count "refine.safe" 1;
        "safe"
    | Counterexample _ ->
        count "refine.counterexamples" 1;
        "counterexample"
    | Unknown _ ->
        count "refine.unknown" 1;
        "unknown"
  in
  Tracer.close_span
    ~attrs:
      [
        ("verdict", Ev.Str tag);
        ("threads", Ev.Int (List.length r.threads));
      ]
    sp;
  r

let witness ~original ~transformed r =
  match verdict r with
  | Counterexample (_, t) ->
      Some
        (Safeopt_core.Witness.make ~original ~transformed
           (Safeopt_core.Witness.Relation_failure t))
  | Safe | Unknown _ -> None
