(* The first-class memory-model interface (lib/model): the SC/TSO/PSO
   inclusion hierarchy and its collapse on DRF programs, checked by
   QCheck over random programs at jobs 1 and 2; the validator
   differential the portability matrix rests on — under a hardware
   model, [Validate.Auto]'s verdict must equal model-exhaustive
   enumeration on every randomly transformed pair; one table of
   section-8 cases run under each store-buffer model; and robustness
   enforcement. *)

open Safeopt_exec
open Safeopt_lang
open Safeopt_gen
open Safeopt_litmus
open Helpers
module Model = Safeopt_model.Memory_model
module Robustness = Safeopt_model.Robustness

let rand () = Random.State.make [| 0x5afe8; 8 |]
let to_alcotest t = QCheck_alcotest.to_alcotest ~rand:(rand ()) t

let test ?(count = 100) name gen ~print prop =
  to_alcotest (QCheck2.Test.make ~name ~count ~print gen prop)

(* --- unit: the model type itself ----------------------------------- *)

let test_of_string () =
  List.iter
    (fun (s, m) ->
      Alcotest.(check bool)
        (Printf.sprintf "of_string %S" s)
        true
        (Model.of_string s = Ok m))
    [
      ("sc", Model.Sc);
      ("tso", Model.Tso);
      ("pso", Model.Pso);
      ("SC", Model.Sc);
      (" Tso ", Model.Tso);
    ];
  Alcotest.(check bool)
    "unknown model rejected" true
    (Result.is_error (Model.of_string "arm"));
  List.iter
    (fun m ->
      Alcotest.(check bool)
        ("name round-trips for " ^ Model.name m)
        true
        (Model.of_string (Model.name m) = Ok m))
    Model.all

let test_catch_fire () =
  Alcotest.(check bool) "SC catches fire" true (Model.catch_fire Model.Sc);
  Alcotest.(check bool) "TSO does not" false (Model.catch_fire Model.Tso);
  Alcotest.(check bool) "PSO does not" false (Model.catch_fire Model.Pso)

(* The SC model is the interleaving semantics, and only the hardware
   models have a store buffer. *)
let test_dispatch_agrees () =
  List.iter
    (fun (t : Litmus.t) ->
      let p = Litmus.program t in
      Alcotest.check behaviour_set
        (t.Litmus.name ^ ": Sc = Interp")
        (Interp.behaviours p)
        (Model.behaviours Model.Sc p))
    [ Corpus.sb; Corpus.lb; Corpus.mp_volatile; Corpus.atomic_sb_xchg ];
  List.iter
    (fun m ->
      Alcotest.(check bool)
        ("a store buffer for " ^ Model.name m)
        (not (Model.catch_fire m))
        (Option.is_some (Model.buffer m)))
    Model.all

(* --- unit: the flagship portability asymmetry ----------------------- *)

(* store-load-reorder on the lb shape: accepted under SC (Fig. 11
   R-RW, Theorem 4), rejected under TSO and PSO with the manufactured
   [1; 1] outcome as a replayable witness. *)
let test_store_load_reorder_lb () =
  let p = Litmus.program Corpus.lb in
  let p' = Safeopt_opt.Passes.reorder_load_store p in
  Alcotest.(check bool) "the pass fires on lb" false (Ast.equal_program p p');
  let outcome model =
    Safeopt_opt.Validate.run_validator ~model Safeopt_opt.Validate.Auto
      ~original:p ~transformed:p' ()
  in
  Alcotest.(check bool)
    "safe under SC" true
    (Safeopt_opt.Validate.outcome_ok (outcome Model.Sc));
  List.iter
    (fun m ->
      let o = outcome m in
      Alcotest.(check bool)
        ("unsafe under " ^ Model.name m)
        false
        (Safeopt_opt.Validate.outcome_ok o);
      match Safeopt_opt.Validate.outcome_witness ~original:p ~transformed:p' o with
      | Some w -> (
          match w.Safeopt_core.Witness.evidence with
          | Safeopt_core.Witness.New_behaviour b ->
              Alcotest.(check bool)
                ("witness behaviour replays under " ^ Model.name m)
                true
                (Model.replays m p' b && not (Model.replays m p b))
          | _ -> Alcotest.fail "expected a new-behaviour witness")
      | None -> Alcotest.fail "expected a witness")
    [ Model.Tso; Model.Pso ]

(* --- properties: the inclusion hierarchy ---------------------------- *)

let subset a b = Behaviour.Set.subset a b

(* SC <= TSO <= PSO on arbitrary programs: the weak machines only add
   behaviours (an empty-buffer execution is an SC execution, and a
   TSO buffer is a PSO buffer drained in location-merged order). *)
let inclusion_prop jobs p =
  let sc = Model.behaviours ~jobs Model.Sc p in
  let tso = Model.behaviours ~jobs Model.Tso p in
  let pso = Model.behaviours ~jobs Model.Pso p in
  subset sc tso && subset tso pso

let inclusion_j1 =
  test ~count:200 "SC <= TSO <= PSO (jobs 1)" Generators.program
    ~print:Generators.print_program (inclusion_prop 1)

let inclusion_j2 =
  test ~count:100 "SC <= TSO <= PSO (jobs 2)" Generators.program
    ~print:Generators.print_program (inclusion_prop 2)

(* On DRF programs the hierarchy collapses — the DRF guarantee: every
   buffered execution is observationally equivalent to an SC one. *)
let drf_equality_prop jobs p =
  let sc = Model.behaviours ~jobs Model.Sc p in
  Behaviour.Set.equal sc (Model.behaviours ~jobs Model.Tso p)
  && Behaviour.Set.equal sc (Model.behaviours ~jobs Model.Pso p)

let drf_equality_j1 =
  test ~count:200 "DRF collapses the hierarchy (jobs 1)"
    Generators.drf_program ~print:Generators.print_program
    (drf_equality_prop 1)

let drf_equality_j2 =
  test ~count:100 "DRF collapses the hierarchy (jobs 2)"
    Generators.drf_program ~print:Generators.print_program
    (drf_equality_prop 2)

(* --- properties: the validator differential ------------------------- *)

(* A random safe pass applied to a random program, judged under a
   hardware model: [Auto] must return exactly [Exhaustive]'s verdict —
   the ladder's weak-model escalation rules (refine only via the
   static-DRF certificate, else model-exhaustive) may never change the
   answer. *)
let transformed_pair =
  QCheck2.Gen.map2
    (fun p name ->
      let pass = Option.get (Safeopt_opt.Pipeline.find name) in
      (p, (pass.Safeopt_opt.Pass.run p).Safeopt_opt.Pass.program))
    Generators.program
    (QCheck2.Gen.oneofl Safeopt_opt.Pipeline.safe_names)

let print_pair (p, p') =
  Generators.print_program p ^ "\n--- transformed ---\n"
  ^ Generators.print_program p'

let ladder_agreement_prop model (p, p') =
  let run v =
    Safeopt_opt.Validate.outcome_ok
      (Safeopt_opt.Validate.run_validator ~model v ~original:p ~transformed:p'
         ())
  in
  run Safeopt_opt.Validate.Auto = run Safeopt_opt.Validate.Exhaustive

let ladder_agreement_tso =
  test ~count:150 "Auto = Exhaustive under TSO" transformed_pair
    ~print:print_pair
    (ladder_agreement_prop Model.Tso)

let ladder_agreement_pso =
  test ~count:150 "Auto = Exhaustive under PSO" transformed_pair
    ~print:print_pair
    (ladder_agreement_prop Model.Pso)

(* --- section 8: one table of cases, run under each hardware model ---- *)

let hardware = [ Model.Tso; Model.Pso ]
let weak m p = Model.weak_behaviours m p
let not_weak m p = Behaviour.Set.is_empty (weak m p)
let check_b = Alcotest.(check bool)

(* The weak behaviours (minus SC) the model gives [t], exactly. *)
let weakness (t : Litmus.t) expected m =
  Alcotest.check behaviour_set
    (t.Litmus.name ^ " weak under " ^ Model.name m)
    (behaviours_of_list (expected m))
    (weak m (Litmus.program t))

(* SC <= ... <= m on a sample of corpus programs, along [Model.all]
   (strongest first) up to [m]. *)
let chain m =
  let rec upto = function
    | x :: rest -> x :: (if Model.equal x m then [] else upto rest)
    | [] -> []
  in
  upto Model.all

let inclusion_label m =
  String.concat " <= "
    (List.map (fun m -> String.uppercase_ascii (Model.name m)) (chain m))

let inclusions m =
  List.iter
    (fun t ->
      let p = Litmus.program t in
      let rec go = function
        | a :: (b :: _ as rest) ->
            check_b
              (Fmt.str "%s: %a in %a" t.Litmus.name Model.pp a Model.pp b)
              true
              (Behaviour.Set.subset (Model.behaviours a p)
                 (Model.behaviours b p));
            go rest
        | _ -> ()
      in
      go (chain m))
    [ Corpus.sb; Corpus.mp; Corpus.lb; Corpus.corr; Corpus.fig2_original ]

(* Buffers are FIFO (per thread, or per location): LB and CoRR gain
   nothing, and same-location writes drain in order (coherence). *)
let fifo_order m =
  check_b "lb not weak" true (not_weak m (Litmus.program Corpus.lb));
  check_b "corr not weak" true (not_weak m (Litmus.program Corpus.corr));
  check_b "no out-of-order same-location drain" false
    (Behaviour.Set.mem [ 8 ]
       (Model.behaviours m (Litmus.program Corpus.co_ww_rr)))

(* A thread reads its own buffered write. *)
let store_forwarding m =
  let b =
    Model.behaviours m (parse "thread { x := 1; r1 := x; print r1; }")
  in
  check_b "sees own write" true (Behaviour.Set.mem [ 1 ] b);
  check_b "never sees stale own write" false (Behaviour.Set.mem [ 0 ] b)

(* Volatile writes and locks drain the buffers. *)
let fences m =
  List.iter
    (fun t ->
      check_b (t.Litmus.name ^ " not weak") true
        (not_weak m (Litmus.program t)))
    [ Corpus.sb_volatile; Corpus.mp_volatile; Corpus.mp_locked ];
  check_b "locked sb not weak" true
    (not_weak m
       (parse
          "thread { lock m; x := 1; r1 := y; print r1; unlock m; }\n\
           thread { lock m; y := 1; r2 := x; print r2; unlock m; }"))

(* An RMW behaves like an x86 LOCKed instruction: it waits for every
   buffer of its thread to drain and goes straight to memory. *)
let rmw_flushes m =
  check_b "sb-with-xchg not weak" true
    (not_weak m (Litmus.program Corpus.atomic_sb_xchg));
  check_b "plain sb is weak (control)" false
    (not_weak m (Litmus.program Corpus.sb));
  (* even PSO, which breaks plain MP, keeps MP with an xchg-published
     flag: the data write is in memory before the flag update is *)
  check_b "xchg-published mp not weak" true
    (not_weak m
       (parse
          "thread { data := 1; r0 := xchg(flag, 1); }\n\
           thread { r1 := flag; if (r1 == 1) { r2 := data; print r2; } }"));
  (* the RMW cannot read its own buffered write stale: the plain store
     drains first, so faa reads 1, returns 1, and leaves 2 in memory *)
  let q =
    parse "thread { x := 1; r1 := faa(x, 1); r2 := x; print r1; print r2; }"
  in
  Alcotest.check behaviour_set "faa sees the drained store"
    (Interp.behaviours q) (Model.behaviours m q);
  check_b "reads 1, leaves 2" true
    (Behaviour.Set.mem [ 1; 2 ] (Model.behaviours m q))

(* The central section-8 theorem check: DRF programs have no observable
   weakness. *)
let drf_no_weakness m =
  List.iter
    (fun t ->
      if t.Litmus.drf then
        let w = weak m (Litmus.program t) in
        if not (Behaviour.Set.is_empty w) then
          Alcotest.failf "%s: DRF program %s-weak: %a" t.Litmus.name
            (Model.name m) Behaviour.Set.pp w)
    Corpus.all

(* And the explanation claim: the model's behaviours are covered by the
   SC behaviours of the programs its rules reach. *)
let explained m =
  List.iter
    (fun t ->
      let _, _, ok =
        Portability.explained_by_transformations m (Litmus.program t)
      in
      if not ok then
        Alcotest.failf "%s: %s behaviours not explained by transformations"
          t.Litmus.name (Model.name m))
    [ Corpus.sb; Corpus.mp; Corpus.lb; Corpus.corr; Corpus.fig2_original ]

(* The table: each case's label under each model (two cases keep their
   per-model wording), its speed, and its check. *)
let section8 =
  let same label _ = label in
  let per_model ~tso ~pso m = if Model.equal m Model.Pso then pso else tso in
  [
    (* a store buffer breaks SB under both models; only PSO's
       per-location buffers break MP, by write-write reordering *)
    (same "SB weakness", `Quick, weakness Corpus.sb (same [ [ 0; 0 ] ]));
    ( same "MP weakness",
      `Quick,
      weakness Corpus.mp (per_model ~tso:[] ~pso:[ [ 0 ] ]) );
    (inclusion_label, `Quick, inclusions);
    ( per_model ~tso:"FIFO order preserved" ~pso:"per-location FIFO",
      `Quick,
      fifo_order );
    (same "store forwarding", `Quick, store_forwarding);
    (same "fences", `Quick, fences);
    ( per_model ~tso:"RMWs flush the buffer" ~pso:"RMWs flush the buffers",
      `Quick,
      rmw_flushes );
    (same "DRF implies no weakness", `Slow, drf_no_weakness);
    (same "explained by transformations", `Slow, explained);
  ]

let section8_group m =
  ( Model.name m,
    List.map
      (fun (label, speed, f) ->
        Alcotest.test_case (label m) speed (fun () -> f m))
      section8 )

(* --- robustness: restoring DRF removes every hardware weakness ------- *)

let robust_everywhere p = List.for_all (fun m -> not_weak m p) hardware

let test_robust_sb () =
  let sb = Litmus.program Corpus.sb in
  check_b "sb not robust" false (Robustness.is_robust sb);
  let sb', promoted = Robustness.enforce sb in
  check_b "promotions happened" true (promoted <> []);
  check_b "now DRF" true (Interp.is_drf sb');
  check_b "now robust" true (Robustness.is_robust sb');
  (* behaviours under SC unchanged by volatility annotations *)
  Alcotest.check behaviour_set "SC behaviours unchanged"
    (Interp.behaviours sb) (Interp.behaviours sb')

let test_robust_already_drf () =
  let p = Litmus.program Corpus.mp_locked in
  let p', promoted = Robustness.enforce p in
  check_b "no promotions" true (promoted = []);
  check_b "unchanged" true (Ast.equal_program p p')

let test_raced_location () =
  let sb = Litmus.program Corpus.sb in
  (match Robustness.raced_location sb with
  | Some l -> check_b "raced location is x or y" true (l = "x" || l = "y")
  | None -> Alcotest.fail "sb must have a raced location");
  check_b "DRF program has none" true
    (Robustness.raced_location (Litmus.program Corpus.fig3_a) = None)

let test_robust_mp () =
  let mp', promoted = Robustness.enforce (Litmus.program Corpus.mp) in
  check_b "flag (at least) promoted" true (promoted <> []);
  check_b "mp robust afterwards" true (Robustness.is_robust mp');
  check_b "PSO-robust too (DRF covers PSO as well)" true
    (robust_everywhere mp')

let test_robust_corpus () =
  List.iter
    (fun t ->
      let p', _ = Robustness.enforce (Litmus.program t) in
      if not (Interp.is_drf p') then
        Alcotest.failf "%s: enforce did not reach DRF" t.Litmus.name;
      if not (robust_everywhere p') then
        Alcotest.failf "%s: enforced program still weak" t.Litmus.name)
    Corpus.all

let () =
  Alcotest.run "model"
    ([
       ( "interface",
         [
           Alcotest.test_case "of_string / name" `Quick test_of_string;
           Alcotest.test_case "racy-behaviour semantics" `Quick test_catch_fire;
           Alcotest.test_case "dispatch agrees with the machines" `Quick
             test_dispatch_agrees;
           Alcotest.test_case "store-load-reorder on lb" `Quick
             test_store_load_reorder_lb;
         ] );
       ( "inclusion",
         [ inclusion_j1; inclusion_j2; drf_equality_j1; drf_equality_j2 ] );
       ("validator", [ ladder_agreement_tso; ladder_agreement_pso ]);
     ]
    @ List.map section8_group hardware
    @ [
        ( "robustness",
          [
            Alcotest.test_case "store buffering" `Quick test_robust_sb;
            Alcotest.test_case "already DRF" `Quick test_robust_already_drf;
            Alcotest.test_case "raced location" `Quick test_raced_location;
            Alcotest.test_case "message passing" `Quick test_robust_mp;
            Alcotest.test_case "whole corpus" `Slow test_robust_corpus;
          ] );
      ])
