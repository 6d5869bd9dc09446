open Safeopt_trace
open Safeopt_core
open Helpers

let check_b = Alcotest.(check bool)
let wc = Wildcard.of_trace

let test_check_witness () =
  let wild = [ c (st 0); c (r "x" 1); wild "y"; c (r "x" 1); c (ext 1) ] in
  (* drop the wildcard (irrelevant) and the second read (RaR) *)
  let witness = { Elimination.wild; kept = [ 0; 1; 4 ] } in
  check_b "valid witness" true
    (Elimination.check_witness none
       ~transformed:[ st 0; r "x" 1; ext 1 ]
       witness);
  check_b "wrong transformed" false
    (Elimination.check_witness none
       ~transformed:[ st 0; r "x" 2; ext 1 ]
       witness);
  (* keeping a wildcard is never valid *)
  check_b "kept wildcard invalid" false
    (Elimination.check_witness none
       ~transformed:[ st 0; r "x" 1; r "y" 0; ext 1 ]
       { Elimination.wild; kept = [ 0; 1; 2; 4 ] });
  (* dropping a non-eliminable index is invalid: the write to z is
     followed by a kept read of z, so it is not a redundant last
     write and no other clause applies *)
  check_b "non-eliminable drop" false
    (Elimination.check_witness none
       ~transformed:[ st 0; r "x" 1; r "z" 1; ext 1 ]
       {
         Elimination.wild = wc [ st 0; r "x" 1; w "z" 1; r "z" 1; ext 1 ];
         kept = [ 0; 1; 3; 4 ];
       });
  (* proper mode rejects last-action eliminations *)
  let last_write = wc [ st 0; r "x" 1; ext 1; w "z" 1 ] in
  check_b "last write ok by default" true
    (Elimination.check_witness none
       ~transformed:[ st 0; r "x" 1; ext 1 ]
       { Elimination.wild = last_write; kept = [ 0; 1; 2 ] });
  check_b "last write rejected when proper" false
    (Elimination.check_witness ~proper:true none
       ~transformed:[ st 0; r "x" 1; ext 1 ]
       { Elimination.wild = last_write; kept = [ 0; 1; 2 ] })

let test_embeddings () =
  let wild = wc [ st 0; r "x" 1; r "x" 1; ext 1 ] in
  (* either read can be the kept one *)
  let embs = Elimination.embeddings none ~transformed:[ st 0; r "x" 1; ext 1 ] ~wild in
  (* only the FIRST read can be kept: the second is redundant-after-
     read, but the first has no earlier licensing action, so skipping
     it is not allowed *)
  Alcotest.(check int) "one embedding" 1 (List.length embs);
  check_b "all valid" true
    (List.for_all
       (fun kept ->
         Elimination.check_witness none
           ~transformed:[ st 0; r "x" 1; ext 1 ]
           { Elimination.wild; kept })
       embs);
  Alcotest.(check (option (list int))) "first embedding"
    (Some [ 0; 1; 3 ])
    (Elimination.trace_elimination_of none
       ~transformed:[ st 0; r "x" 1; ext 1 ]
       ~wild);
  Alcotest.(check (option (list int))) "impossible embedding" None
    (Elimination.trace_elimination_of none
       ~transformed:[ st 0; w "q" 9 ]
       ~wild)

let test_generalisations () =
  let universe = [ 0; 1 ] in
  let belongs_to w = Traceset.belongs_to fig2_original_traceset w ~universe in
  let gens =
    Elimination.generalisations ~belongs_to [ st 0; r "x" 1; w "y" 1 ]
  in
  (* the read can NOT be generalised alone (the write value depends on
     it), so only the concrete trace survives *)
  Alcotest.(check int) "only concrete" 1 (List.length gens);
  let gens2 = Elimination.generalisations ~belongs_to [ st 0; r "x" 1 ] in
  Alcotest.(check int) "read alone generalises" 2 (List.length gens2)

(* Section 4's example: the one-trace program x:=1;print 1;lock;x:=1;unlock
   is an elimination of the longer single-thread program. *)
let test_sec4_tracesets () =
  let orig = Safeopt_lang.Parser.parse_program
      {|thread {
  x := 1;
  r1 := y;
  r2 := x;
  print r2;
  if (r2 != 0) { lock m; x := 2; x := r2; unlock m; }
}|}
  in
  let trans = Safeopt_lang.Parser.parse_program
      {|thread { x := 1; print 1; lock m; x := 1; unlock m; }|}
  in
  let universe = Safeopt_lang.Denote.joint_universe [ orig; trans ] in
  let ts_o = Safeopt_lang.Denote.traceset ~universe ~max_len:12 orig in
  let ts_t = Safeopt_lang.Denote.traceset ~universe ~max_len:12 trans in
  check_b "is elimination" true
    (Elimination.is_elimination none ~original:ts_o ~universe
       ~transformed:ts_t);
  (* and not the other way round: the original has behaviours the
     transformed cannot eliminate its way into (e.g. reading y) *)
  check_b "not an elimination the other way" false
    (Elimination.is_elimination none ~original:ts_t ~universe
       ~transformed:ts_o)

let test_is_member () =
  let universe = [ 0; 1 ] in
  (* [S(0); W[x=1]] is in the elimination closure of fig2's original
     traceset (drop the irrelevant read) — the section-4 step. *)
  check_b "W[x=1] member via irrelevant read" true
    (Elimination.is_member none ~original:fig2_original_traceset ~universe
       [ st 1; w "x" 1 ]);
  check_b "original trace is a member" true
    (Elimination.is_member none ~original:fig2_original_traceset ~universe
       [ st 0; r "x" 1; w "y" 1 ]);
  check_b "alien trace is not" false
    (Elimination.is_member none ~original:fig2_original_traceset ~universe
       [ st 0; w "q" 1 ])

let test_negative () =
  (* A transformed traceset with a fresh action cannot be an
     elimination. *)
  let orig = Traceset.of_list [ [ st 0; w "x" 1 ] ] in
  let bad = Traceset.of_list [ [ st 0; w "x" 2 ] ] in
  check_b "fresh write rejected" false
    (Elimination.is_elimination none ~original:orig ~universe:[ 0; 1; 2 ]
       ~transformed:bad);
  (* Dropping a non-eliminable action is rejected: W[x=1] between two
     reads of x cannot be dropped. *)
  let orig2 = Traceset.of_list [ [ st 0; r "x" 0; w "x" 1; r "x" 1 ] ] in
  let bad2 = Traceset.of_list [ [ st 0; r "x" 0; r "x" 1 ] ] in
  check_b "load-bearing write not eliminable" false
    (Elimination.is_elimination none ~original:orig2 ~universe:[ 0; 1 ]
       ~transformed:bad2)

(* --- memoised membership = unmemoised membership ---------------------- *)

(* A case: a per-thread traceset (the bounded denotation of a generated
   thread), and queries drawn from its own traces, from their
   restrictions (likely eliminations) and from random traces, each
   asked twice so that the second round hits the memo tables. *)
type memo_case = {
  thread : Safeopt_lang.Ast.thread;
  vol : Location.Volatile.t;
  proper : bool;
  original : Traceset.t;
  universe : Value.t list;
  queries : Trace.t list;
}

let memo_case =
  let open QCheck2.Gen in
  let* thread = Safeopt_gen.Generators.thread in
  let* volatile = bool in
  let* proper = bool in
  let vol = if volatile then vol_v else none in
  let universe =
    Safeopt_lang.Denote.universe (Safeopt_lang.Ast.program [ thread ])
  in
  let original, _ =
    Safeopt_lang.Denote.thread_traces ~max_traces:400 ~universe ~max_len:6
      ~tid:0 thread
  in
  (* Dropping only reads asks for the wildcard generalisations (an
     irrelevant read must be a wildcard to be eliminated), so these
     queries exercise the belongs-to memo; dropping anything else
     mostly yields non-members. *)
  let restriction ~only_reads =
    let* t = oneofl (Traceset.to_list original) in
    let* keep = list_repeat (List.length t) bool in
    return
      (Trace.filteri
         (fun i a ->
           i = 0 || List.nth keep i || (only_reads && not (Action.is_read a)))
         t)
  in
  let* own = list_size (int_range 0 3) (oneofl (Traceset.to_list original)) in
  let* restricted =
    list_size (int_range 1 5)
      (bind bool (fun only_reads -> restriction ~only_reads))
  in
  let* random = list_size (int_range 0 3) Safeopt_gen.Generators.trace in
  let queries = own @ restricted @ random in
  let* again = shuffle_l queries in
  return
    { thread; vol; proper; original; universe; queries = queries @ again }

let print_memo_case c =
  Fmt.str "@[<v>thread: %s@ proper: %b@ queries: %a@]"
    (Safeopt_lang.Pp.thread_compact c.thread)
    c.proper
    Fmt.(list ~sep:sp Trace.pp)
    c.queries

let test_memoised_member () =
  let members = ref 0 and non_members = ref 0 in
  let prop c =
    let memo =
      Elimination.memoised_member ~proper:c.proper c.vol ~original:c.original
        ~universe:c.universe
    in
    List.for_all
      (fun t ->
        let expected =
          Elimination.is_member ~proper:c.proper c.vol ~original:c.original
            ~universe:c.universe t
        in
        incr (if expected then members else non_members);
        Bool.equal (memo t) expected)
      c.queries
  in
  QCheck2.Test.check_exn
    (QCheck2.Test.make ~name:"memoised_member = is_member" ~count:150
       ~print:print_memo_case memo_case prop);
  (* Both verdicts must occur, or the agreement says little. *)
  check_b "some queries are members" true (!members > 0);
  check_b "some queries are not" true (!non_members > 0)

(* --- pruned search = unpruned candidate scan ------------------------ *)

(* The witness search without the subsequence pruning: every candidate
   at least as long as the query, shortest first, the concrete trace
   and then its proper generalisations.  The pruned search must return
   the same first witness, and both membership oracles must agree with
   it. *)
let unpruned_find_witness ?proper vol ~belongs_to ~candidates ~transformed =
  let tlen = Trace.length transformed in
  List.filter (fun t -> Trace.length t >= tlen) candidates
  |> List.sort (fun a b -> Int.compare (Trace.length a) (Trace.length b))
  |> List.find_map (fun t ->
         let try_wild wild =
           Elimination.trace_elimination_of ?proper vol ~transformed ~wild
           |> Option.map (fun kept -> { Elimination.wild; kept })
         in
         let concrete = Wildcard.of_trace t in
         match if belongs_to concrete then try_wild concrete else None with
         | Some w -> Some w
         | None ->
             Elimination.generalisations ~belongs_to t
             |> List.find_map (fun wild ->
                    if Wildcard.wildcard_count wild = 0 then None
                    else try_wild wild))

let test_pruned_search () =
  let members = ref 0 and non_members = ref 0 in
  let prop c =
    let belongs_to w = Traceset.belongs_to c.original w ~universe:c.universe in
    let candidates = Traceset.to_list c.original in
    let memo =
      Elimination.memoised_member ~proper:c.proper c.vol ~original:c.original
        ~universe:c.universe
    in
    List.for_all
      (fun t ->
        let expected =
          unpruned_find_witness ~proper:c.proper c.vol ~belongs_to ~candidates
            ~transformed:t
        in
        let found =
          Elimination.find_witness ~proper:c.proper c.vol ~belongs_to
            ~candidates ~transformed:t
        in
        let member = Option.is_some expected in
        incr (if member then members else non_members);
        Option.equal
          (fun (a : Elimination.witness) (b : Elimination.witness) ->
            Wildcard.equal a.wild b.wild && a.kept = b.kept)
          found expected
        && Bool.equal member
             (Elimination.is_member ~proper:c.proper c.vol
                ~original:c.original ~universe:c.universe t)
        && Bool.equal member (memo t))
      c.queries
  in
  QCheck2.Test.check_exn
    (QCheck2.Test.make ~name:"pruned search = unpruned candidate scan"
       ~count:150 ~print:print_memo_case memo_case prop);
  (* Queries outside the closure are where the pruning acts. *)
  check_b "some queries are members" true (!members > 0);
  check_b "some queries are not" true (!non_members > 0)

let () =
  Alcotest.run "elimination"
    [
      ( "elimination",
        [
          Alcotest.test_case "witness checking" `Quick test_check_witness;
          Alcotest.test_case "embeddings" `Quick test_embeddings;
          Alcotest.test_case "generalisations" `Quick test_generalisations;
          Alcotest.test_case "section-4 tracesets" `Quick test_sec4_tracesets;
          Alcotest.test_case "closure membership" `Quick test_is_member;
          Alcotest.test_case "negative cases" `Quick test_negative;
          Alcotest.test_case "memoised membership = unmemoised" `Quick
            test_memoised_member;
          Alcotest.test_case "pruned search = unpruned scan" `Quick
            test_pruned_search;
        ] );
    ]
