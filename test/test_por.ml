open Safeopt_exec
open Safeopt_lang
open Safeopt_litmus
open Safeopt_gen
open Helpers

let check_b = Alcotest.(check bool)

(* A program with plenty of thread-local work around the shared
   accesses: POR should prune, behaviours must not change. *)
let heavy =
  parse
    "thread { a1 := 1; a1 := 2; a2 := 1; shared := r1; a3 := 1; }\n\
     thread { b1 := 1; b2 := 1; r2 := shared; b3 := 1; print r2; }"

let test_equivalence () =
  Alcotest.check behaviour_set "same behaviours with and without POR"
    (full_behaviours heavy) (Interp.behaviours heavy);
  List.iter
    (fun t ->
      let p = Litmus.program t in
      if not
           (Behaviour.Set.equal (full_behaviours p) (Interp.behaviours p))
      then Alcotest.failf "%s: POR changed behaviours" t.Litmus.name)
    Corpus.all

let test_reduction () =
  let full = full_count_states heavy in
  let reduced = Interp.count_states heavy in
  check_b
    (Printf.sprintf "POR explores fewer states (%d < %d)" reduced full)
    true (reduced < full)

let test_local_predicate () =
  let local = Thread_system.local_actions heavy in
  check_b "private location is local" true (local (w "a1" 1));
  check_b "shared location is not" false (local (w "shared" 1));
  check_b "shared read is not" false (local (r "shared" 0));
  check_b "external is not local" false (local (ext 1));
  check_b "lock is not local" false (local (lk "m"))

let test_same_location_rmws_dependent () =
  (* regression: Action.conflicting excuses the rmw-rmw pair (atomicity
     orders them, so they never race), but the explorer must still treat
     same-location RMWs as dependent — their order decides which faa
     ticket each thread gets.  If POR wrongly commuted them, one of the
     two print orders would disappear from the reduced exploration. *)
  let p = Litmus.program Corpus.atomic_faa_counter in
  let full = full_behaviours p in
  let reduced = Interp.behaviours p in
  Alcotest.check behaviour_set "reduced = full on the faa counter" full
    reduced;
  check_b "both ticket orders survive POR" true
    (Behaviour.Set.mem [ 0; 1 ] reduced && Behaviour.Set.mem [ 1; 0 ] reduced)

let test_all_shared () =
  (* when every location is shared, only the start actions (which
     always commute) are reduced; behaviours are untouched *)
  let sb = Litmus.program Corpus.sb in
  check_b "still some reduction from starts" true
    (Interp.count_states sb <= full_count_states sb);
  Alcotest.check behaviour_set "behaviours identical" (full_behaviours sb)
    (Interp.behaviours sb)

(* --- the reduced race search ------------------------------------------ *)

let pool2 = Safeopt_exec.Par.Pool.create 2

(* A race witness replays from scratch: it is a lock-respecting,
   sequentially consistent interleaving whose per-thread traces each
   belong to the program's denotation, and its last two actions are an
   adjacent race. *)
let replays p i =
  let n = Interleaving.length i in
  n >= 2
  && Interleaving.entry_points_ok i
  && Interleaving.respects_mutex i
  && Interleaving.well_locked i
  && Interleaving.is_sequentially_consistent i
  && List.for_all
       (fun (_, tr) -> Denote.issues_program p tr)
       (Interleaving.thread_traces i)
  && Race.adjacent_race p.Ast.volatile i = Some (n - 2, n - 1)

(* The reduced search (Interp at jobs 1, the stealing engine at jobs 2)
   agrees with the unreduced one on the DRF verdict, and every witness
   it returns replays.  A
   budget both sides exceed still agrees, and so does one only the
   unreduced side exceeds; the reduced side alone exceeding it does
   not. *)
let reduced_race_search_agrees p =
  let outcome f =
    try Ok (f ()) with Safeopt_exec.Explorer.Too_many_states _ -> Error ()
  in
  let max_states = 200_000 in
  let full = outcome (fun () -> full_find_race ~max_states p) in
  List.for_all
    (fun pool ->
      let reduced () =
        match pool with
        | None -> Interp.find_race ~max_states p
        | Some pool -> par_find_race ~max_states ~pool p
      in
      match (full, outcome reduced) with
      | Ok None, Ok None -> true
      | Ok (Some _), Ok (Some i) -> replays p i
      | Error (), Error () -> true
      (* The reduction may finish inside a budget the full search
         exceeds; only the reverse is a defect. *)
      | Error (), Ok None -> true
      | Error (), Ok (Some i) -> replays p i
      | _ -> false)
    [ None; Some pool2 ]

let qcheck_race_search =
  QCheck_alcotest.to_alcotest
    ~rand:(Random.State.make [| 0x7ace; 13 |])
    (QCheck2.Test.make
       ~name:"reduced race search = unreduced, witnesses replay (jobs 1/2)"
       ~count:300 ~print:Generators.print_program Generators.program
       reduced_race_search_agrees)

let test_race_search_corpus () =
  List.iter
    (fun t ->
      if not (reduced_race_search_agrees (Litmus.program t)) then
        Alcotest.failf "%s: reduced race search disagrees or fails to replay"
          t.Litmus.name)
    Corpus.all

(* Private work around a lock-protected shared counter: the program is
   DRF, so both searches exhaust their state spaces, and the reduced
   one commutes the private stores instead of interleaving them. *)
let private_work =
  parse
    "thread { a1 := 1; a2 := 2; a3 := 3; lock m; r1 := c; c := r1; unlock m; \
     a1 := r1; }\n\
     thread { b1 := 1; b2 := 2; b3 := 3; lock m; r2 := c; c := r2; unlock m; \
     b1 := r2; }"

(* Successors are built lazily and keyed once: a reduced exploration
   builds a thread key for each initial thread and at most one per
   followed (thread key, step, read value), never for a transition the
   persistent set or a sleep set cuts.  Each successor of the counting
   system carries the step that made it, so the test can tell which
   step each key was built for. *)
let test_lazy_successors () =
  let sys = Thread_system.make heavy in
  let key = sys.System.key in
  let steps (_, ts) =
    let parent = key ts in
    List.mapi
      (fun i step ->
        let made v j ts' = (Some (parent, i, v, j), ts') in
        match step with
        | System.Emit (a, ts') -> System.Emit (a, made None 0 ts')
        | System.Read (l, k) ->
            System.Read (l, fun v -> Option.map (made (Some v) 0) (k v))
        | System.Rmw (l, k) ->
            System.Rmw
              ( l,
                fun v ->
                  List.mapi (fun j (w, ts') -> (w, made (Some v) j ts')) (k v)
              ))
      (sys.System.steps ts)
  in
  let keyed = ref [] in
  let counted =
    {
      System.initial = List.map (fun ts -> (None, ts)) sys.System.initial;
      steps;
      key =
        (fun (made, ts) ->
          keyed := made :: !keyed;
          key ts);
    }
  in
  let s = Explorer.create_stats () in
  let b =
    Explorer.behaviours ~local:(Thread_system.local_actions heavy) ~stats:s
      counted
  in
  Alcotest.check behaviour_set "the counting system explores as Interp"
    (Interp.behaviours heavy) b;
  let edges = s.Explorer.edges and cuts = s.Explorer.por_cuts in
  let calls = List.length !keyed in
  let followed = List.filter_map Fun.id !keyed in
  check_b "the reduction cuts transitions" true (cuts > 0);
  Alcotest.(check int)
    "one key per initial thread"
    (List.length sys.System.initial)
    (calls - List.length followed);
  Alcotest.(check int)
    "at most one key per followed (thread key, step, read value)"
    (List.length followed)
    (List.length (List.sort_uniq compare followed));
  check_b
    (Printf.sprintf "no more keys than followed edges (%d <= %d)"
       (List.length followed) edges)
    true
    (List.length followed <= edges);
  check_b
    (Printf.sprintf "fewer keys than enabled transitions (%d < %d + %d)"
       calls edges cuts)
    true
    (calls < edges + cuts)

let test_race_search_cuts () =
  let reduced = Safeopt_exec.Explorer.create_stats () in
  let full = Safeopt_exec.Explorer.create_stats () in
  check_b "reduced search finds no race" true
    (Interp.find_race ~stats:reduced private_work = None);
  check_b "unreduced search finds no race" true
    (full_find_race ~stats:full private_work = None);
  let rs = reduced.Safeopt_exec.Explorer.states
  and fs = full.Safeopt_exec.Explorer.states in
  check_b
    (Printf.sprintf "reduced race search visits fewer states (%d < %d)" rs fs)
    true (rs < fs);
  check_b "the cuts are counted" true
    (reduced.Safeopt_exec.Explorer.por_cuts > 0)

let () =
  Alcotest.run "por"
    [
      ( "partial-order reduction",
        [
          Alcotest.test_case "behaviour equivalence" `Slow test_equivalence;
          Alcotest.test_case "state reduction" `Quick test_reduction;
          Alcotest.test_case "local predicate" `Quick test_local_predicate;
          Alcotest.test_case "same-location RMWs stay dependent" `Quick
            test_same_location_rmws_dependent;
          Alcotest.test_case "all-shared case" `Quick test_all_shared;
          Alcotest.test_case "successors built lazily" `Quick
            test_lazy_successors;
        ] );
      ( "race search",
        [
          Alcotest.test_case "fewer states on private work" `Quick
            test_race_search_cuts;
          Alcotest.test_case "corpus verdicts and witnesses" `Quick
            test_race_search_corpus;
          qcheck_race_search;
        ] );
    ]
