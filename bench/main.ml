(* The benchmark harness regenerates every figure, table and in-text
   example of the paper (the reproduction report, experiment ids E1-E12
   of DESIGN.md), then times each experiment's workload with Bechamel
   (performance series P1).

   Run with: dune exec bench/main.exe *)

open Safeopt_trace
open Safeopt_exec
open Safeopt_lang
open Safeopt_litmus

let vol0 = Location.Volatile.none

let hr fmt =
  Fmt.pr "@.=== %s ===@." (Fmt.str fmt)

let claim name expected actual =
  Fmt.pr "  %-58s %s (expected %b, got %b)@." name
    (if expected = actual then "OK" else "MISMATCH")
    expected actual

let behaviours_str p =
  String.concat " | " (Interp.behaviour_strings (Interp.behaviours p))

(* The unreduced SC engine ([Explorer] without [~local]).  [Interp]
   always explores under the partial-order reduction; the exploration
   experiments keep measuring the full engine against their fixed
   anchors, and the reduction is checked against it. *)
let full_count_states ?pool p =
  Explorer.count_states ?pool (Thread_system.make p)

let full_behaviours ?stats ?pool p =
  Explorer.behaviours ?stats ?pool (Thread_system.make p)

(* The work-stealing engine, unconditionally: a pooled call on a
   program below [Explorer.steal_after] states is decided by the
   sequential engine, so the parity checks and the parallel walls of
   [bench parallel] go through [Explorer.Parallel]. *)
let par_full_count_states ~pool p =
  Explorer.Parallel.count_states ~pool (Thread_system.make p)

let par_full_behaviours ~pool p =
  Explorer.Parallel.behaviours ~pool (Thread_system.make p)

let par_count_states ?stats ~pool p =
  Explorer.Parallel.count_states ?stats
    ~local:(Thread_system.local_actions p)
    ~pool (Thread_system.make p)

(* ------------------------------------------------------------------ *)
(* E1: the section-1 motivating example                                *)
(* ------------------------------------------------------------------ *)

let e1 () =
  hr "E1: section 1 intro example (constant propagation)";
  let orig = Litmus.program Corpus.intro_racy in
  let opt = Litmus.program Corpus.intro_racy_opt in
  let volp = Litmus.program Corpus.intro_volatile in
  Fmt.pr "  original behaviours:    %s@." (behaviours_str orig);
  Fmt.pr "  optimised behaviours:   %s@." (behaviours_str opt);
  Fmt.pr "  volatile behaviours:    %s@." (behaviours_str volp);
  claim "original cannot print 1" true (not (Interp.can_output orig 1));
  claim "optimised can print 1" true (Interp.can_output opt 1);
  claim "original is racy (flags)" true (not (Interp.is_drf orig));
  claim "volatile variant is DRF" true (Interp.is_drf volp);
  claim "volatile variant still cannot print 1" true
    (not (Interp.can_output volp 1));
  (* the racy rewrite is a legitimate semantic elimination, the
     volatile one is not *)
  let universe = Denote.joint_universe [ orig; opt ] in
  let elim p p' =
    Safeopt_core.Elimination.is_elimination p.Ast.volatile
      ~original:(Denote.traceset ~universe ~max_len:12 p)
      ~universe
      ~transformed:(Denote.traceset ~universe ~max_len:12 p')
  in
  claim "racy rewrite is a semantic elimination" true (elim orig opt);
  let vol_opt =
    { opt with Ast.volatile = volp.Ast.volatile }
  in
  claim "same rewrite on the volatile program is NOT an elimination" true
    (not (elim volp vol_opt))

(* ------------------------------------------------------------------ *)
(* E2: Figure 1                                                        *)
(* ------------------------------------------------------------------ *)

let e2 () =
  hr "E2: Figure 1 (write and read elimination)";
  let orig = Litmus.program Corpus.fig1_original in
  let trans = Litmus.program Corpus.fig1_transformed in
  Fmt.pr "  original behaviours:    %s@." (behaviours_str orig);
  Fmt.pr "  transformed behaviours: %s@." (behaviours_str trans);
  claim "original cannot output 1 then 0" true
    (not (Behaviour.Set.mem [ 1; 0 ] (Interp.behaviours orig)));
  claim "transformed can output 1 then 0" true
    (Behaviour.Set.mem [ 1; 0 ] (Interp.behaviours trans));
  claim "both racy (no DRF guarantee violation)" true
    ((not (Interp.is_drf orig)) && not (Interp.is_drf trans));
  let universe = Denote.joint_universe [ orig; trans ] in
  claim "transformed traceset is an elimination of the original" true
    (Safeopt_core.Elimination.is_elimination vol0
       ~original:(Denote.traceset ~universe ~max_len:10 orig)
       ~universe
       ~transformed:(Denote.traceset ~universe ~max_len:10 trans))

(* ------------------------------------------------------------------ *)
(* E3: Figure 2                                                        *)
(* ------------------------------------------------------------------ *)

let fig2_elim_closure_mem orig_ts universe =
  let memo = Hashtbl.create 97 in
  fun t ->
    let k = Trace.to_string t in
    match Hashtbl.find_opt memo k with
    | Some b -> b
    | None ->
        let b =
          Safeopt_core.Elimination.is_member vol0 ~original:orig_ts ~universe t
        in
        Hashtbl.add memo k b;
        b

let e3 () =
  hr "E3: Figure 2 (read/write reordering)";
  let orig = Litmus.program Corpus.fig2_original in
  let trans = Litmus.program Corpus.fig2_transformed in
  Fmt.pr "  original behaviours:    %s@." (behaviours_str orig);
  Fmt.pr "  transformed behaviours: %s@." (behaviours_str trans);
  claim "original cannot print 1" true (not (Interp.can_output orig 1));
  claim "transformed can print 1" true (Interp.can_output trans 1);
  let universe = Denote.joint_universe [ orig; trans ] in
  let ts_o = Denote.traceset ~universe ~max_len:8 orig in
  let ts_t = Denote.traceset ~universe ~max_len:8 trans in
  claim "NOT a reordering of the original traceset alone" true
    (not (Safeopt_core.Reorder.is_reordering vol0 ~original:ts_o ~transformed:ts_t));
  claim "a reordering of an elimination of the original (sec. 4)" true
    (Safeopt_core.Reorder.is_reordering_of_oracle vol0
       ~mem:(fig2_elim_closure_mem ts_o universe)
       ~transformed:ts_t)

(* ------------------------------------------------------------------ *)
(* E4: Figure 3                                                        *)
(* ------------------------------------------------------------------ *)

let e4 () =
  hr "E4: Figure 3 (irrelevant read introduction breaks the guarantee)";
  let a = Litmus.program Corpus.fig3_a in
  let b = Litmus.program Corpus.fig3_b in
  let c = Litmus.program Corpus.fig3_c in
  Fmt.pr "  (a) %s@.  (b) %s@.  (c) %s@." (behaviours_str a)
    (behaviours_str b) (behaviours_str c);
  let can00 p = Behaviour.Set.mem [ 0; 0 ] (Interp.behaviours p) in
  claim "(a) DRF, cannot print two zeros" true
    (Interp.is_drf a && not (can00 a));
  claim "(b) racy, still cannot print two zeros" true
    ((not (Interp.is_drf b)) && not (can00 b));
  claim "(c) prints two zeros" true (can00 c);
  let b' = Safeopt_opt.Passes.introduce_irrelevant_reads a in
  claim "(a)->(b): SC behaviours preserved, DRF destroyed" true
    (Behaviour.Set.equal (Interp.behaviours a) (Interp.behaviours b')
    && not (Interp.is_drf b'));
  let c' = Safeopt_opt.Passes.eliminate_reads_across_acquires b in
  claim "(b)->(c): cross-acquire elimination reproduces (c)" true
    (Behaviour.Set.equal (Interp.behaviours c) (Interp.behaviours c'))

(* ------------------------------------------------------------------ *)
(* E5: the reorderability matrix                                       *)
(* ------------------------------------------------------------------ *)

let e5 () =
  hr "E5: section 4 reorderability matrix";
  Fmt.pr "%a" Safeopt_core.Reorder.pp_matrix ();
  (* the paper's check-marks, row-major, distinct locations:
     W: y y y x y / R: y y y x y / Acq: all x / Rel: y y x x x /
     Ext: y y x x x *)
  let expected =
    [
      [ true; true; true; false; true ];
      [ true; true; true; false; true ];
      [ false; false; false; false; false ];
      [ true; true; false; false; false ];
      [ true; true; false; false; false ];
    ]
  in
  let m = Safeopt_core.Reorder.matrix ~same_location:false in
  claim "matrix matches the paper's table" true
    (List.for_all2
       (fun row i -> List.for_all2 (fun e j -> m.(i).(j) = e) row (List.init 5 Fun.id) |> fun l -> l)
       expected (List.init 5 Fun.id))

(* ------------------------------------------------------------------ *)
(* E6: Figure 4 (de-permutations)                                      *)
(* ------------------------------------------------------------------ *)

(* Fig. 2's tracesets (section 4), explicit over {0,1}. *)
let fig2_original_ts =
  Traceset.of_list
    (List.concat_map
       (fun v ->
         Action.
           [
             [ Start 0; Read ("x", v); Write ("y", v) ];
             [ Start 1; Read ("y", v); Write ("x", 1); External v ];
           ])
       [ 0; 1 ])

let fig2_transformed_ts =
  Traceset.of_list
    (List.concat_map
       (fun v ->
         Action.
           [
             [ Start 0; Read ("x", v); Write ("y", v) ];
             [ Start 1; Write ("x", 1); Read ("y", v); External v ];
           ])
       [ 0; 1 ])

let fig4_t' =
  Action.[ Start 1; Write ("x", 1); Read ("y", 1); External 1 ]

let fig4_f : Safeopt_core.Reorder.f = [| 0; 2; 1; 3 |]

let fig4_t_bar =
  Traceset.add Action.[ Start 1; Write ("x", 1) ] fig2_original_ts

let e6 () =
  hr "E6: Figure 4 (de-permutation of prefixes)";
  List.iter
    (fun n ->
      let t = Safeopt_core.Reorder.depermute_prefix fig4_f fig4_t' n in
      Fmt.pr "  n=%d: %a  in T-bar: %b@." n Trace.pp t
        (Traceset.mem t fig4_t_bar))
    [ 4; 3; 2; 1; 0 ];
  claim "f de-permutes t' into T-bar" true
    (Safeopt_core.Reorder.de_permutes vol0 fig4_f fig4_t' ~mem:(fun t ->
         Traceset.mem t fig4_t_bar))

(* ------------------------------------------------------------------ *)
(* E7: Figure 5 (unelimination)                                        *)
(* ------------------------------------------------------------------ *)

let fig5_original_ts =
  Traceset.of_list
    (List.concat_map
       (fun v ->
         Action.
           [
             [ Start 0; Write ("v", 1); Write ("y", 1) ];
             [ Start 1; Read ("x", v); Read ("v", 0); External 0 ];
             [ Start 1; Read ("x", v); Read ("v", 1); External 1 ];
           ])
       [ 0; 1 ])

let fig5_i' =
  List.map
    (fun (t, a) -> Interleaving.pair t a)
    Action.
      [
        (0, Start 0);
        (1, Start 1);
        (0, Write ("y", 1));
        (1, Read ("v", 0));
        (1, External 0);
      ]

let fig5_vol = Location.Volatile.of_list [ "v" ]

let e7 () =
  hr "E7: Figure 5 (unelimination construction)";
  match
    Safeopt_core.Unelimination.construct_from_traceset fig5_vol
      ~original:fig5_original_ts ~universe:[ 0; 1 ] fig5_i'
  with
  | None -> Fmt.pr "  FAILED to construct@."
  | Some { Safeopt_core.Unelimination.wild; matching } ->
      Fmt.pr "  I' = %a@." Interleaving.pp fig5_i';
      Fmt.pr "  I  = %a@." Interleaving.Wild.pp wild;
      claim "f maps index 2 to position 6 (paper's example)" true
        (matching.(2) = 6);
      claim "all four unelimination clauses hold" true
        (Safeopt_core.Unelimination.is_unelimination_function fig5_vol
           ~transformed:fig5_i' ~wild ~f:matching);
      let inst = Interleaving.Wild.instance wild in
      claim "the instance is an execution of T with the same behaviour" true
        (Interleaving.is_execution_of fig5_original_ts inst
        && Behaviour.equal
             (Interleaving.behaviour inst)
             (Interleaving.behaviour fig5_i'))

(* ------------------------------------------------------------------ *)
(* E8: out-of-thin-air                                                 *)
(* ------------------------------------------------------------------ *)

let e8 () =
  hr "E8: section 5 out-of-thin-air program";
  let p = Litmus.program Corpus.oota in
  let universe = [ 0; 42 ] in
  let ts = Denote.traceset ~universe ~max_len:8 p in
  claim "no trace is an origin for 42" true
    (not (Safeopt_core.Origin.traceset_has_origin 42 ts));
  claim "no bounded execution mentions 42 (Lemma 3)" true
    (Safeopt_core.Origin.check_lemma3 42 ts ~max_steps:2_000_000 = Ok ());
  let reachable =
    Safeopt_opt.Transform.reachable ~max_programs:500
      (Safeopt_opt.Rule.i_ir :: Safeopt_opt.Rule.all)
      p
  in
  Fmt.pr "  programs reachable via the rules: %d@." (List.length reachable);
  claim "none can output 42 (Theorem 5)" true
    (List.for_all (fun q -> not (Interp.can_output q 42)) reachable)

(* ------------------------------------------------------------------ *)
(* E9: section 4 elimination example                                   *)
(* ------------------------------------------------------------------ *)

let e9_orig = Litmus.program Corpus.sec4_elim_original
let e9_trans = Litmus.program Corpus.sec4_elim_transformed

let e9_check () =
  let universe = Denote.joint_universe [ e9_orig; e9_trans ] in
  Safeopt_core.Elimination.is_elimination vol0
    ~original:(Denote.traceset ~universe ~max_len:12 e9_orig)
    ~universe
    ~transformed:(Denote.traceset ~universe ~max_len:12 e9_trans)

let e9 () =
  hr "E9: section 4 traceset elimination example";
  claim "x:=1;print 1;lock;x:=1;unlock eliminates the long program" true
    (e9_check ())

(* ------------------------------------------------------------------ *)
(* E10/E11: guarantee sweeps over the corpus                           *)
(* ------------------------------------------------------------------ *)

let e10_sweep () =
  List.for_all
    (fun t ->
      let p = Litmus.program t in
      List.for_all
        (fun s ->
          Safeopt_opt.Validate.behaviours_ok
            (Safeopt_opt.Validate.validate ~original:p
               ~transformed:s.Safeopt_opt.Transform.after ()))
        (Safeopt_opt.Transform.program_rewrites Safeopt_opt.Rule.all p))
    Corpus.all

let e10 () =
  hr "E10: Theorems 1-4 sweep (all corpus programs x all rules)";
  let total =
    List.fold_left
      (fun acc t ->
        acc
        + List.length
            (Safeopt_opt.Transform.program_rewrites Safeopt_opt.Rule.all
               (Litmus.program t)))
      0 Corpus.all
  in
  Fmt.pr "  rule applications checked: %d@." total;
  claim "every safe-rule application preserves the DRF guarantee" true
    (e10_sweep ())

let e11 () =
  hr "E11: Theorem 5 sweep (no rule chain manufactures a fresh constant)";
  let fresh_value = 23 in
  let ok =
    List.for_all
      (fun t ->
        let p = Litmus.program t in
        if List.mem fresh_value (Ast.all_constants_program p) then true
        else
          Safeopt_opt.Transform.reachable ~max_programs:60
            Safeopt_opt.Rule.all p
          |> List.for_all (fun q -> not (Interp.can_output q fresh_value)))
      Corpus.all
  in
  claim "23 never appears out of thin air across the corpus" true ok

(* ------------------------------------------------------------------ *)
(* E12: TSO                                                            *)
(* ------------------------------------------------------------------ *)

let e12 () =
  hr "E12: section 8 — TSO explained by the transformations";
  Fmt.pr "  %-18s %-24s %-10s %s@." "test" "weak behaviours" "explained"
    "drf";
  List.iter
    (fun t ->
      let p = Litmus.program t in
      let weak = Safeopt_tso.Machine.weak_behaviours p in
      let _, _, expl = Safeopt_tso.Machine.explained_by_transformations p in
      Fmt.pr "  %-18s %-24s %-10b %b@." t.Litmus.name
        (Fmt.str "%a" Behaviour.Set.pp weak)
        expl (Interp.is_drf p))
    [
      Corpus.sb;
      Corpus.lb;
      Corpus.mp;
      Corpus.mp_volatile;
      Corpus.mp_locked;
      Corpus.corr;
      Corpus.fig3_a;
      Corpus.dekker_volatile;
    ];
  claim "SB exhibits exactly the 0,0 weakness" true
    (Behaviour.Set.equal
       (Safeopt_tso.Machine.weak_behaviours (Litmus.program Corpus.sb))
       (Behaviour.Set.singleton [ 0; 0 ]))

(* ------------------------------------------------------------------ *)
(* E13: PSO (other memory models, section 8's outlook)                 *)
(* ------------------------------------------------------------------ *)

let e13 () =
  hr "E13: PSO — per-location store buffers (extension)";
  Fmt.pr "  %-14s %-16s %-18s %s@." "test" "pso-weak" "beyond-tso" "explained";
  List.iter
    (fun t ->
      let p = Litmus.program t in
      let weak = Safeopt_tso.Pso.weak_behaviours p in
      let beyond = Safeopt_tso.Pso.weak_beyond_tso p in
      let _, _, expl = Safeopt_tso.Pso.explained_by_transformations p in
      Fmt.pr "  %-14s %-16s %-18s %b@." t.Litmus.name
        (Fmt.str "%a" Behaviour.Set.pp weak)
        (Fmt.str "%a" Behaviour.Set.pp beyond)
        expl)
    [ Corpus.sb; Corpus.mp; Corpus.lb; Corpus.corr; Corpus.mp_volatile ];
  claim "PSO weakens MP (write-write reordering), beyond TSO" true
    (Behaviour.Set.mem [ 0 ]
       (Safeopt_tso.Pso.weak_beyond_tso (Litmus.program Corpus.mp)));
  claim "MP's PSO weakness is explained by R-WW (+R-WR, E-RAW)" true
    (let _, _, e =
       Safeopt_tso.Pso.explained_by_transformations (Litmus.program Corpus.mp)
     in
     e)

(* ------------------------------------------------------------------ *)
(* E14: robustness enforcement                                         *)
(* ------------------------------------------------------------------ *)

let e14 () =
  hr "E14: fence inference (DRF enforcement makes programs SC-on-TSO)";
  Fmt.pr "  %-14s %-20s %s@." "test" "promoted" "robust after";
  List.iter
    (fun t ->
      let p = Litmus.program t in
      let p', promoted = Safeopt_tso.Robustness.enforce p in
      Fmt.pr "  %-14s %-20s %b@." t.Litmus.name
        (if promoted = [] then "(already DRF)"
         else String.concat ", " promoted)
        (Safeopt_tso.Robustness.is_robust p'))
    [ Corpus.sb; Corpus.mp; Corpus.lb; Corpus.mp_locked ];
  claim "every enforced corpus program is TSO-robust" true
    (List.for_all
       (fun t ->
         let p', _ = Safeopt_tso.Robustness.enforce (Litmus.program t) in
         Safeopt_tso.Robustness.is_robust p')
       Corpus.all)

(* ------------------------------------------------------------------ *)
(* P1: scaling data                                                    *)
(* ------------------------------------------------------------------ *)

(* n threads, each reading the shared location x twice and printing
   both reads — E-RAR's redundant read, once per thread.  The per-thread
   tracesets stay constant as n grows while the interleaving count (the
   exhaustive validator's cost) explodes: the separation the refinement
   validator exploits.  The location is shared so that the explorer's
   thread-local reduction cannot collapse the reads, as it would for
   thread-private locations. *)
let redundant_read_program n =
  {
    Ast.threads =
      List.init n (fun _ ->
          [
            Ast.Load ("r1", "x");
            Ast.Load ("r2", "x");
            Ast.Print "r2";
            Ast.Print "r1";
          ]);
    volatile = Location.Volatile.none;
  }

let writer_reader_program n_threads =
  (* n threads, each writes its own location then reads its neighbour's *)
  {
    Ast.threads =
      List.init n_threads (fun i ->
          let mine = Printf.sprintf "x%d" i in
          let next = Printf.sprintf "x%d" ((i + 1) mod n_threads) in
          [
            Ast.Move ("r1", Ast.Nat 1);
            Ast.Store (mine, "r1");
            Ast.Load ("r2", next);
            Ast.Print "r2";
          ]);
    volatile = Location.Volatile.none;
  }

let p1 () =
  hr "P1: scaling of exhaustive enumeration";
  Fmt.pr "  %-8s %-12s %-14s %-12s@." "threads" "states" "behaviours" "drf";
  List.iter
    (fun n ->
      let p = writer_reader_program n in
      let states = full_count_states p in
      let bs = Behaviour.Set.cardinal (Interp.behaviours p) in
      Fmt.pr "  %-8d %-12d %-14d %-12b@." n states bs (Interp.is_drf p))
    [ 1; 2; 3; 4 ]

(* n threads with [k] private actions around one shared store. *)
let private_work_program n k =
  {
    Ast.threads =
      List.init n (fun i ->
          let priv j = Printf.sprintf "p%d_%d" i j in
          List.init k (fun j -> Ast.Store (priv j, "r1"))
          @ [ Ast.Store ("shared", "r1") ]
          @ List.init k (fun j -> Ast.Load ("r2", priv j)));
    volatile = Location.Volatile.none;
  }

let p2 () =
  hr "P2: partial-order reduction ablation";
  Fmt.pr "  %-20s %-14s %-12s %-10s@." "program" "states (full)" "with POR"
    "reduction";
  List.iter
    (fun (n, k) ->
      let p = private_work_program n k in
      let full = full_count_states p in
      let por = Interp.count_states p in
      Fmt.pr "  %dt x %d private     %-14d %-12d %.1fx@." n k full por
        (float_of_int full /. float_of_int (max 1 por)))
    [ (2, 2); (2, 4); (3, 2); (3, 3) ];
  claim "POR preserves behaviours on the ablation programs" true
    (List.for_all
       (fun (n, k) ->
         let p = private_work_program n k in
         Behaviour.Set.equal (full_behaviours p) (Interp.behaviours p))
       [ (2, 2); (2, 4); (3, 2); (3, 3) ])

(* ------------------------------------------------------------------ *)
(* P3: exploration engine benchmark -> BENCH_explore.json              *)
(* ------------------------------------------------------------------ *)

(* Reference numbers for the same workload (reps = 20 over the full
   litmus corpus), measured on the hash-table engine the packed-arena
   visited set replaced, at the commit immediately preceding it.  The
   original string-keyed anchor (count_states 0.4204s / 21880 states)
   predates the RMW litmus programs and measured a corpus a fifth this
   size, so it was re-based here on the grown corpus.  Kept fixed so
   BENCH_explore.json tracks the trajectory against a stable anchor;
   the claim below is a regression gate against it. *)
let baseline_pre_arena =
  [
    ("count_states", (1.0528, 102520));
    ("count_states_por", (0.9260, 92240));
    ("behaviours", (1.1420, 2240));
    ("behaviours_por", (1.0224, 2240));
  ]

(* Wall-clock timing on the monotonic clock (Clock): immune to system
   time adjustments, so benchmark walls are never negative or skewed. *)
let time f =
  let t0 = Clock.now () in
  let r = f () in
  (r, Clock.elapsed t0)

(* Benchmark JSON must never carry NaN / infinity (division by a zero
   wall): refuse to emit the file instead of publishing garbage. *)
let rate_or_die ~what num den =
  let r = num /. den in
  if den <= 0. || not (Float.is_finite r) then begin
    Fmt.epr
      "bench: refusing to emit %s: non-finite rate (%f / %f); the workload \
       completed too fast to time@."
      what num den;
    exit 1
  end;
  r

(* Per-phase wall-time breakdowns for the BENCH_* files: the benchmark
   runs under a Memory tracer sink (entry-point spans only, a few
   events per exploration — negligible next to the workloads), and the
   stopped event buffer folds into a {"phase": {count, wall_s}} object
   via the same aggregation [drfopt report] uses. *)
module Obs = Safeopt_obs

let phases_json events =
  let t = Obs.Report.aggregate events in
  let rows =
    List.map
      (fun (name, count, wall) ->
        Printf.sprintf "    %S: {\"count\": %d, \"wall_s\": %.6f}" name count
          wall)
      (Obs.Report.phase_walls t)
  in
  match rows with
  | [] -> "{}"
  | _ -> "{\n" ^ String.concat ",\n" rows ^ "\n  }"

(* [quick] runs a quarter of the reps — the CI smoke mode behind
   `drfopt bench diff`.  The fixed pre-arena anchor walls are scaled by
   reps/20 so the speedup and the regression-gate claim stay
   comparable; units_per_sec is reps-independent either way, which is
   what `bench diff` compares a quick run against the committed full
   run on. *)
let explore_bench ?(quick = false) () =
  if quick then
    hr "P3: exploration engine (quick smoke mode) -> BENCH_explore.json"
  else hr "P3: exploration engine on the litmus corpus -> BENCH_explore.json";
  Obs.Tracer.start Obs.Tracer.Memory;
  let programs = List.map Litmus.program Corpus.all in
  let reps = if quick then 5 else 20 in
  let scale_anchor w = w *. float_of_int reps /. 20. in
  let count_run por () =
    let count p = if por then Interp.count_states p else full_count_states p in
    let acc = ref 0 in
    for _ = 1 to reps do
      List.iter (fun p -> acc := !acc + count p) programs
    done;
    !acc
  in
  let beh_run por () =
    let beh p = if por then Interp.behaviours p else full_behaviours p in
    let acc = ref 0 in
    for _ = 1 to reps do
      List.iter (fun p -> acc := !acc + Behaviour.Set.cardinal (beh p)) programs
    done;
    !acc
  in
  let experiments =
    [
      ("count_states", time (count_run false));
      ("count_states_por", time (count_run true));
      ("behaviours", time (beh_run false));
      ("behaviours_por", time (beh_run true));
    ]
  in
  (* POR soundness over the whole corpus (the acceptance criterion),
     with one stats sink accumulating across every exploration. *)
  let stats = Explorer.create_stats () in
  let identical =
    List.for_all
      (fun p ->
        Behaviour.Set.equal (full_behaviours ~stats p)
          (Interp.behaviours ~stats p))
      programs
  in
  Fmt.pr "  %-18s %-10s %-12s %-14s %s@." "experiment" "total" "wall (s)"
    "units/s" "speedup";
  let rows =
    List.map
      (fun (name, (total, wall)) ->
        let base_wall, _ = List.assoc name baseline_pre_arena in
        let base_wall = scale_anchor base_wall in
        let speedup =
          rate_or_die ~what:("BENCH_explore.json " ^ name) base_wall wall
        in
        let per_sec =
          rate_or_die
            ~what:("BENCH_explore.json " ^ name)
            (float_of_int total) wall
        in
        Fmt.pr "  %-18s %-10d %-12.4f %-14.0f %.2fx@." name total wall per_sec
          speedup;
        Printf.sprintf
          "    {\"name\": %S, \"total\": %d, \"wall_s\": %.4f, \
           \"units_per_sec\": %.0f, \"baseline_wall_s\": %.4f, \"speedup\": \
           %.2f}"
          name total wall per_sec base_wall speedup)
      experiments
  in
  claim "POR-reduced and full behaviour sets identical on the corpus" true
    identical;
  claim "count_states no slower than the pre-packed-arena baseline" true
    (let _, wall = List.assoc "count_states" experiments in
     scale_anchor (fst (List.assoc "count_states" baseline_pre_arena)) /. wall
     >= 0.9);
  let phases = phases_json (Obs.Tracer.stop ()) in
  let json =
    String.concat "\n"
      ([
         "{";
         "  \"schema\": \"bench_explore/v2\",";
         Printf.sprintf "  \"quick\": %b," quick;
         Printf.sprintf "  \"reps\": %d," reps;
         Printf.sprintf "  \"programs\": %d," (List.length programs);
         "  \"experiments\": [";
       ]
      @ [ String.concat ",\n" rows ]
      @ [
          "  ],";
          Printf.sprintf "  \"phases\": %s," phases;
          Printf.sprintf "  \"por_behaviour_sets_identical\": %b," identical;
          Printf.sprintf "  \"explorer_stats\": %s"
            (Explorer.stats_to_json stats);
          "}";
        ])
  in
  let oc = open_out "BENCH_explore.json" in
  output_string oc json;
  output_char oc '\n';
  close_out oc;
  Fmt.pr "  wrote BENCH_explore.json@."

(* ------------------------------------------------------------------ *)
(* P4: pass-manager pipeline benchmark -> BENCH_pipeline.json          *)
(* ------------------------------------------------------------------ *)

(* Run the default safe pipeline with per-pass differential validation
   over the litmus corpus, recording per-program pass work (rewrite
   sites, validation wall time, exploration states).  [quick] trims the
   corpus to its first few programs — the CI smoke mode. *)
let pipeline_bench ?(quick = false) () =
  let open Safeopt_opt in
  if quick then
    hr "P4: pass-manager pipeline (quick smoke mode) -> BENCH_pipeline.json"
  else hr "P4: pass-manager pipeline over the litmus corpus -> \
           BENCH_pipeline.json";
  Obs.Tracer.start Obs.Tracer.Memory;
  let corpus =
    if quick then List.filteri (fun i _ -> i < 4) Corpus.all else Corpus.all
  in
  let spec =
    match Pipeline.parse "constprop;copyprop;cse*;dead-moves;dse;normalise"
    with
    | Ok s -> s
    | Error e -> failwith e
  in
  let t0 = Clock.now () in
  let rows =
    List.map
      (fun (l : Litmus.t) ->
        let p = Litmus.program l in
        let o = Pipeline.run ~validate_each:true spec p in
        let sites =
          List.fold_left
            (fun n ps -> n + List.length ps.Pipeline.ps_sites)
            0 o.Pipeline.steps
        in
        let states =
          List.fold_left
            (fun n ps -> n + ps.Pipeline.ps_explorer.Explorer.states)
            0 o.Pipeline.steps
        in
        let vwall =
          List.fold_left
            (fun w ps -> w +. ps.Pipeline.ps_validation_wall)
            0. o.Pipeline.steps
        in
        let rejected = Option.is_some o.Pipeline.failure in
        Fmt.pr "  %-24s %2d sites, %5d states, %7.2f ms validation%s@."
          l.Litmus.name sites states (vwall *. 1000.)
          (if rejected then "  REJECTED" else "");
        ( rejected,
          Printf.sprintf
            "    {\"name\": %S, \"sites\": %d, \"validation_states\": %d, \
             \"validation_wall_s\": %.6f, \"rejected\": %b}"
            l.Litmus.name sites states vwall rejected ))
      corpus
  in
  let wall = Clock.elapsed t0 in
  let phases = phases_json (Obs.Tracer.stop ()) in
  let none_rejected = List.for_all (fun (r, _) -> not r) rows in
  claim "no safe pipeline rejected on the corpus" true none_rejected;
  let json =
    String.concat "\n"
      ([
         "{";
         "  \"schema\": \"bench_pipeline/v1\",";
         Printf.sprintf "  \"quick\": %b," quick;
         "  \"pipeline\": \"constprop;copyprop;cse*;dead-moves;dse;normalise\",";
         Printf.sprintf "  \"programs\": %d," (List.length corpus);
         Printf.sprintf "  \"wall_s\": %.4f," wall;
         Printf.sprintf "  \"phases\": %s," phases;
         "  \"per_program\": [";
       ]
      @ [ String.concat ",\n" (List.map snd rows) ]
      @ [
          "  ],";
          Printf.sprintf "  \"all_validated\": %b" none_rejected;
          "}";
        ])
  in
  let oc = open_out "BENCH_pipeline.json" in
  output_string oc json;
  output_char oc '\n';
  close_out oc;
  Fmt.pr "  wrote BENCH_pipeline.json@."

(* ------------------------------------------------------------------ *)
(* P5: domain-parallel exploration -> BENCH_parallel.json              *)
(* ------------------------------------------------------------------ *)

(* Time the corpus workloads sequentially and across [jobs] domains on
   one shared pool of work-stealing workers, recording wall-clock
   speedups, steal counts, and state-visit parity.  Every parallel
   total is compared against the sequential one, and the acceptance
   criteria are re-checked explicitly: parallel behaviour sets must be
   identical to the sequential ones program by program, and parallel
   state counts (with the reduction on) must equal sequential ones
   exactly — a parity failure exits nonzero so CI fails.  [quick]
   trims the repetitions — the CI smoke mode.

   Honesty: speedup is bounded by the host's core count.  The JSON
   records both the requested and the effective parallelism, and on a
   host with fewer than 2 cores it carries ["degraded": true] — the
   speedup figures of such a run measure scheduling overhead, not
   scaling, and trajectory tooling must not read them as regressions.
   The headline ">1x" claim is only made when the host can express
   it.

   Every figure and parity check above that explores one program on
   the pool runs the work-stealing engine unconditionally
   ([Explorer.Parallel]); [litmus_corpus] shards whole tests.  The crossover sweep
   then times the engine choice itself: reduced [count_states] on
   generated programs from about 10^2 to 6x10^4 states, and outside
   [quick] two larger ones up to the 8-thread refine-scaling program,
   sequentially, on the stealing engine, and through the pooled entry
   point, which runs the sequential engine first and escalates past
   [Explorer.steal_after] states.  Gated: the pooled call must use the
   sequential engine below [steal_after] and the stealing engine above
   it, with the jobs-1 count either way. *)

(* n threads, each taking a lock around a read and a write of one
   shared counter and printing what it read. *)
let locked_counter_program n =
  {
    Ast.threads =
      List.init n (fun i ->
          [
            Ast.Lock "m";
            Ast.Load ("r1", "c");
            Ast.Move ("r2", Ast.Nat (i + 1));
            Ast.Store ("c", "r2");
            Ast.Unlock "m";
            Ast.Print "r1";
          ]);
    volatile = Location.Volatile.none;
  }

(* [redundant_read_program n] plus [k] threads that only print. *)
let readers_printers_program n k =
  let p = redundant_read_program n in
  {
    p with
    Ast.threads =
      p.Ast.threads
      @ List.init k (fun i ->
            [ Ast.Move ("r1", Ast.Nat (i + 1)); Ast.Print "r1" ]);
  }

type crossover_point = {
  cx_name : string;
  cx_states : int;
  cx_seq_wall : float;
  cx_steal_wall : float;
  cx_pooled_wall : float;
  cx_escalated : bool;  (** the pooled call ran the stealing engine *)
  cx_count_equal : bool;  (** pooled and stealing counts = jobs 1 *)
}

let crossover_sweep ~quick ~pool =
  let points =
    [
      ("writer-reader-3", writer_reader_program 3);
      ("redundant-read-3", redundant_read_program 3);
      ("locked-counter-4", locked_counter_program 4);
      ("redundant-read-4", redundant_read_program 4);
      ("redundant-read-5", redundant_read_program 5);
      ("readers-printers-5-2", readers_printers_program 5 2);
      ("locked-counter-5", locked_counter_program 5);
      ("redundant-read-6", redundant_read_program 6);
      ("readers-printers-6-1", readers_printers_program 6 1);
      ("readers-printers-6-2", readers_printers_program 6 2);
    ]
    @
    if quick then []
    else
      [
        ("locked-counter-6", locked_counter_program 6);
        ("redundant-read-8", redundant_read_program 8);
      ]
  in
  let reps = 3 in
  let best f =
    let rec go k acc =
      if k = 0 then acc
      else
        let _, w = time f in
        go (k - 1) (Float.min acc w)
    in
    go reps infinity
  in
  List.map
    (fun (name, p) ->
      let states = Interp.count_states p in
      let ps = Explorer.create_stats () in
      let pooled = Interp.count_states ~stats:ps ~pool p in
      let stolen = par_count_states ~pool p in
      let pt =
        {
          cx_name = name;
          cx_states = states;
          cx_seq_wall = best (fun () -> Interp.count_states p);
          cx_steal_wall = best (fun () -> par_count_states ~pool p);
          cx_pooled_wall = best (fun () -> Interp.count_states ~pool p);
          cx_escalated = ps.Explorer.domains >= 2;
          cx_count_equal = pooled = states && stolen = states;
        }
      in
      Fmt.pr "  %-22s %8d %10.2f %10.2f %10.2f %6.2fx  %s@." name states
        (pt.cx_seq_wall *. 1e3) (pt.cx_steal_wall *. 1e3)
        (pt.cx_pooled_wall *. 1e3)
        (pt.cx_seq_wall /. pt.cx_steal_wall)
        (if pt.cx_escalated then "seq→par" else "seq");
      pt)
    points

let parallel_bench ?(quick = false) ~jobs () =
  let jobs_requested = Par.resolve_jobs jobs in
  hr "P5: work-stealing parallel exploration -> BENCH_parallel.json";
  let host_cores = Domain.recommended_domain_count () in
  let jobs_effective = min jobs_requested host_cores in
  let degraded = host_cores < 2 in
  let reps = if quick then 2 else 8 in
  Fmt.pr "  %d domains requested (%d effective), %d cores on this host, %d \
          reps%s@."
    jobs_requested jobs_effective host_cores reps
    (if degraded then " [degraded: single-core host]" else "");
  let programs = List.map Litmus.program Corpus.all in
  let big = [ writer_reader_program 3; private_work_program 3 3 ] in
  let all = programs @ big in
  Par.Pool.with_pool jobs_requested (fun pool ->
      let beh ?pool () =
        let acc = ref 0 in
        for _ = 1 to reps do
          List.iter
            (fun p ->
              let b =
                match pool with
                | None -> full_behaviours p
                | Some pool -> par_full_behaviours ~pool p
              in
              acc := !acc + Behaviour.Set.cardinal b)
            all
        done;
        !acc
      in
      let count ?pool () =
        let acc = ref 0 in
        for _ = 1 to reps do
          List.iter
            (fun p ->
              let c =
                match pool with
                | None -> full_count_states p
                | Some pool -> par_full_count_states ~pool p
              in
              acc := !acc + c)
            all
        done;
        !acc
      in
      let litmus ?pool () =
        let acc = ref 0 in
        for _ = 1 to reps do
          List.iter
            (fun o -> if Litmus.passed o then incr acc)
            (Litmus.check_all ?pool Corpus.all)
        done;
        !acc
      in
      let experiments =
        List.map
          (fun (name, (f : ?pool:Par.Pool.t -> unit -> int)) ->
            let rseq, wseq = time (fun () -> f ?pool:None ()) in
            let rpar, wpar = time (fun () -> f ~pool ()) in
            (name, rseq, wseq, rpar, wpar))
          [
            ("behaviours", beh);
            ("count_states", count);
            ("litmus_corpus", litmus);
          ]
      in
      Fmt.pr "  %-18s %-10s %-12s %-12s %s@." "experiment" "total" "seq (s)"
        "par (s)" "speedup";
      let rows =
        List.map
          (fun (name, rseq, wseq, rpar, wpar) ->
            let speedup =
              rate_or_die ~what:("BENCH_parallel.json " ^ name) wseq wpar
            in
            Fmt.pr "  %-18s %-10d %-12.4f %-12.4f %.2fx@." name rseq wseq wpar
              speedup;
            ( speedup,
              Printf.sprintf
                "    {\"name\": %S, \"total\": %d, \"seq_wall_s\": %.4f, \
                 \"par_wall_s\": %.4f, \"speedup\": %.2f, \"totals_equal\": \
                 %b}"
                name rseq wseq wpar speedup (rseq = rpar) ))
          experiments
      in
      let totals_equal =
        List.for_all (fun (_, rseq, _, rpar, _) -> rseq = rpar) experiments
      in
      let identical =
        List.for_all
          (fun p ->
            Behaviour.Set.equal (full_behaviours p)
              (par_full_behaviours ~pool p))
          all
      in
      (* Exact reduced-count parity per program — the property the
         per-item sleep sets restore — plus aggregate steal counts from
         the work-stealing scheduler. *)
      let pstats = Explorer.create_stats () in
      let states_parity =
        List.for_all
          (fun p ->
            Interp.count_states p = par_count_states ~stats:pstats ~pool p)
          all
      in
      let stole = pstats.Explorer.domains >= 2 in
      Fmt.pr "  steals: %d, starvation waits: %d (reduced corpus pass)@."
        pstats.Explorer.steals pstats.Explorer.lock_waits;
      (* Per-jobs scaling curve on the count_states workload: one rep
         per point, sequential baseline at jobs 1. *)
      let _, w1 =
        time (fun () ->
            List.iter (fun p -> ignore (full_count_states p)) all)
      in
      let curve_points =
        List.sort_uniq compare
          (List.filter (fun j -> j > 1) [ 2; 4; jobs_requested ])
      in
      let curve =
        List.map
          (fun j ->
            Par.Pool.with_pool j (fun pl ->
                let _, wj =
                  time (fun () ->
                      List.iter
                        (fun p -> ignore (par_full_count_states ~pool:pl p))
                        all)
                in
                let sp =
                  rate_or_die
                    ~what:
                      (Printf.sprintf "BENCH_parallel.json scaling jobs %d" j)
                    w1 wj
                in
                Fmt.pr "  scaling: jobs %d -> %.4f s (%.2fx)@." j wj sp;
                Printf.sprintf
                  "    {\"jobs\": %d, \"wall_s\": %.4f, \"speedup\": %.2f}" j
                  wj sp))
          curve_points
      in
      claim "parallel totals equal sequential totals" true totals_equal;
      claim "parallel and sequential behaviour sets identical" true identical;
      claim "reduced state counts identical across jobs" true states_parity;
      claim "parity checks ran the work-stealing engine" true stole;
      Fmt.pr
        "  crossover (reduced count_states, best of 3; steal_after = %d):@."
        Explorer.steal_after;
      Fmt.pr "  %-22s %8s %10s %10s %10s %7s  %s@." "program" "states"
        "seq (ms)" "steal (ms)" "pooled(ms)" "seq/st" "pooled engine";
      let sweep = crossover_sweep ~quick ~pool in
      let small, large =
        List.partition (fun pt -> pt.cx_states <= Explorer.steal_after) sweep
      in
      let sweep_counts_equal =
        List.for_all (fun pt -> pt.cx_count_equal) sweep
      in
      let seq_below = List.for_all (fun pt -> not pt.cx_escalated) small in
      let steal_above =
        jobs_requested < 2 || List.for_all (fun pt -> pt.cx_escalated) large
      in
      claim "pooled counts equal jobs 1 across the sweep" true
        sweep_counts_equal;
      claim "pooled calls below steal_after ran the sequential engine" true
        seq_below;
      claim "pooled calls above steal_after ran the stealing engine" true
        steal_above;
      let engine_choice_ok =
        sweep_counts_equal && seq_below && steal_above
      in
      let crossover_rows =
        List.map
          (fun pt ->
            Printf.sprintf
              "    {\"name\": %S, \"states\": %d, \"seq_wall_s\": %.6f, \
               \"steal_wall_s\": %.6f, \"pooled_wall_s\": %.6f, \
               \"seq_over_steal\": %.2f, \"pooled_engine\": \"%s\"}"
              pt.cx_name pt.cx_states pt.cx_seq_wall pt.cx_steal_wall
              pt.cx_pooled_wall
              (pt.cx_seq_wall /. pt.cx_steal_wall)
              (if pt.cx_escalated then "seq→par" else "seq"))
          sweep
      in
      if not degraded then begin
        let above =
          List.length (List.filter (fun (sp, _) -> sp > 1.0) rows)
        in
        claim "work-stealing speedup > 1.0x on at least two experiments" true
          (above >= 2)
      end
      else
        Fmt.pr
          "  (headline speedup claim skipped: host has %d core(s), scaling \
           cannot be expressed)@."
          host_cores;
      let json =
        String.concat "\n"
          ([
             "{";
             "  \"schema\": \"bench_parallel/v3\",";
             Printf.sprintf "  \"quick\": %b," quick;
             Printf.sprintf "  \"jobs_requested\": %d," jobs_requested;
             Printf.sprintf "  \"jobs_effective\": %d," jobs_effective;
             Printf.sprintf "  \"host_cores\": %d," host_cores;
             Printf.sprintf "  \"degraded\": %b," degraded;
             Printf.sprintf "  \"reps\": %d," reps;
             Printf.sprintf "  \"programs\": %d," (List.length all);
             Printf.sprintf "  \"steals\": %d," pstats.Explorer.steals;
             Printf.sprintf "  \"lock_waits\": %d," pstats.Explorer.lock_waits;
             "  \"experiments\": [";
           ]
          @ [ String.concat ",\n" (List.map snd rows) ]
          @ [ "  ],"; "  \"scaling\": [" ]
          @ [ String.concat ",\n" curve ]
          @ [
              "  ],";
              Printf.sprintf "  \"steal_after\": %d," Explorer.steal_after;
              "  \"crossover\": [";
            ]
          @ [ String.concat ",\n" crossover_rows ]
          @ [
              "  ],";
              Printf.sprintf "  \"engine_choice_ok\": %b," engine_choice_ok;
              Printf.sprintf "  \"parity_stole\": %b," stole;
              Printf.sprintf "  \"parallel_totals_equal\": %b," totals_equal;
              Printf.sprintf "  \"parallel_states_identical\": %b,"
                states_parity;
              Printf.sprintf "  \"parallel_behaviour_sets_identical\": %b"
                identical;
              "}";
            ])
      in
      let oc = open_out "BENCH_parallel.json" in
      output_string oc json;
      output_char oc '\n';
      close_out oc;
      Fmt.pr "  wrote BENCH_parallel.json@.";
      if not (totals_equal && identical && states_parity && stole) then begin
        Fmt.epr
          "bench: parallel parity broken (totals_equal=%b identical=%b \
           states_parity=%b stole=%b)@."
          totals_equal identical states_parity stole;
        exit 1
      end;
      if not engine_choice_ok then begin
        Fmt.epr
          "bench: engine choice broken (counts_equal=%b seq_below=%b \
           steal_above=%b)@."
          sweep_counts_equal seq_below steal_above;
        exit 1
      end)

(* ------------------------------------------------------------------ *)
(* P6: thread-local refinement validator -> BENCH_refine.json          *)
(* ------------------------------------------------------------------ *)

(* Two halves, both feeding BENCH_refine.json:

   1. Differential over the litmus corpus: the default safe pipeline
      with per-pass validation under [Auto] must agree, pass for pass,
      with the same run under [Exhaustive] (the refine rung escalates
      instead of rejecting, so this agreement is exact, not
      approximate).  The metrics registry is enabled only around the
      [Auto] sweep, so the validate.* counters give a clean fast-path
      hit rate; the acceptance criterion is that a majority of
      validations are decided without enumerating one interleaving.

   2. Scaling: validate cse on [redundant_read_program n] for growing
      n, by refinement and by exhaustive enumeration under a state
      budget.  At n = 8 the exhaustive validator must exceed the
      budget while refinement still answers (and its per-thread
      verdicts carry completeness, so the answer is sound).

   [quick] trims the corpus sweep — the smoke mode.  Every claim is a
   gate: the result is [false] when any claim mismatches. *)
let refine_bench ?(quick = false) () =
  let open Safeopt_opt in
  hr "P6: thread-local refinement validator -> BENCH_refine.json";
  let all_hold = ref true in
  let claim name expected actual =
    claim name expected actual;
    if expected <> actual then all_hold := false
  in
  let corpus =
    if quick then List.filteri (fun i _ -> i < 6) Corpus.all else Corpus.all
  in
  let spec =
    match Pipeline.parse "constprop;copyprop;cse*;dead-moves;dse;normalise"
    with
    | Ok s -> s
    | Error e -> failwith e
  in
  let sweep validator =
    List.map
      (fun (l : Litmus.t) ->
        (l.Litmus.name, Pipeline.run ~validate_each:true ~validator spec
                          (Litmus.program l)))
      corpus
  in
  (* metrics on only around the Auto sweep: clean fast-path counters *)
  Obs.Metrics.reset_global ();
  Obs.Metrics.set_enabled true;
  let auto_runs, auto_wall = time (fun () -> sweep Validate.Auto) in
  Obs.Metrics.set_enabled false;
  let counter n =
    Option.value ~default:0 Obs.Metrics.(find_counter global n)
  in
  let outcomes = counter "validate.outcomes" in
  let static_hits = counter "validate.static_hits" in
  let refine_hits = counter "validate.refine_hits" in
  let refine_misses = counter "validate.refine_misses" in
  let exhaustive_runs = counter "validate.exhaustive_runs" in
  let exh_runs, exh_wall = time (fun () -> sweep Validate.Exhaustive) in
  (* A sweep takes milliseconds, too short for one sample to compare:
     each wall is the best of [sweep_reps] sweeps, the first auto sweep
     (the only one with metrics on) included. *)
  let sweep_reps = 3 in
  let best_of first validator =
    List.init (sweep_reps - 1) (fun _ ->
        snd (time (fun () -> sweep validator)))
    |> List.fold_left Float.min first
  in
  let auto_wall = best_of auto_wall Validate.Auto in
  let exh_wall = best_of exh_wall Validate.Exhaustive in
  let verdict (o : Pipeline.outcome) =
    match o.Pipeline.failure with
    | None -> "ok"
    | Some (pass, _) -> "REJECTED at " ^ pass
  in
  let agreements =
    List.map2
      (fun (name, (a : Pipeline.outcome)) (_, (e : Pipeline.outcome)) ->
        let agree =
          verdict a = verdict e && Ast.equal_program a.final e.final
        in
        (name, verdict a, agree))
      auto_runs exh_runs
  in
  let all_agree = List.for_all (fun (_, _, a) -> a) agreements in
  List.iter
    (fun (name, v, agree) ->
      Fmt.pr "  %-24s auto: %-10s agree with exhaustive: %b@." name v agree)
    agreements;
  let decided_fast = static_hits + refine_hits in
  Fmt.pr
    "  validations: %d  static: %d  refine: %d  escalated: %d  exhaustive \
     runs: %d@."
    outcomes static_hits refine_hits refine_misses exhaustive_runs;
  Fmt.pr "  auto sweep: %.2f ms; exhaustive sweep: %.2f ms@."
    (auto_wall *. 1000.) (exh_wall *. 1000.);
  claim "auto and exhaustive pipeline verdicts agree on the corpus" true
    all_agree;
  claim "majority of validations decided without interleavings" true
    (2 * decided_fast > outcomes);
  (* a timing claim needs the whole corpus: the quick sweep is too
     short to compare *)
  if not quick then
    claim "auto sweep within 2x of the exhaustive sweep" true
      (auto_wall <= 2. *. exh_wall);
  (* scaling: refinement answers where enumeration exceeds its budget *)
  let state_budget = 200_000 in
  Fmt.pr "  %-8s %-14s %-12s %-22s@." "threads" "refine (ms)" "verdict"
    "exhaustive (budget)";
  let scaling =
    List.map
      (fun n ->
        let p = redundant_read_program n in
        let p' =
          match Passes.run_pipeline [ "redundancy" ] p with
          | Ok p' -> p'
          | Error e -> failwith e
        in
        let r, rwall =
          time (fun () -> Safeopt_analysis.Refine.check ~original:p
                            ~transformed:p' ())
        in
        let safe = Safeopt_analysis.Refine.verdict r = Safeopt_analysis.Refine.Safe in
        let exh, ewall =
          time (fun () ->
              try
                let rep =
                  Validate.validate ~max_states:state_budget ~original:p
                    ~transformed:p' ()
                in
                if Validate.ok rep then `Ok else `Failed
              with Explorer.Too_many_states s -> `Budget s)
        in
        let exh_str =
          match exh with
          | `Ok -> "ok"
          | `Failed -> "FAILED"
          | `Budget s -> Printf.sprintf "exceeded budget (%d states)" s
        in
        Fmt.pr "  %-8d %-14.2f %-12s %-22s@." n (rwall *. 1000.)
          (if safe then "safe" else "NOT SAFE")
          exh_str;
        (n, safe, rwall, exh, ewall))
      [ 2; 4; 8 ]
  in
  claim "refinement validates every scaling point" true
    (List.for_all (fun (_, safe, _, _, _) -> safe) scaling);
  claim "exhaustive exceeds its state budget at 8 threads" true
    (List.exists
       (fun (n, _, _, exh, _) ->
         n = 8 && match exh with `Budget _ -> true | _ -> false)
       scaling);
  let scaling_rows =
    List.map
      (fun (n, safe, rwall, exh, ewall) ->
        Printf.sprintf
          "    {\"threads\": %d, \"refine_safe\": %b, \"refine_wall_s\": \
           %.6f, \"exhaustive\": %S, \"exhaustive_wall_s\": %.6f}"
          n safe rwall
          (match exh with
          | `Ok -> "ok"
          | `Failed -> "failed"
          | `Budget s -> Printf.sprintf "budget_exceeded:%d" s)
          ewall)
      scaling
  in
  let corpus_rows =
    List.map
      (fun (name, v, agree) ->
        Printf.sprintf "    {\"name\": %S, \"verdict\": %S, \"agree\": %b}"
          name v agree)
      agreements
  in
  let json =
    String.concat "\n"
      ([
         "{";
         "  \"schema\": \"bench_refine/v1\",";
         Printf.sprintf "  \"quick\": %b," quick;
         "  \"pipeline\": \"constprop;copyprop;cse*;dead-moves;dse;normalise\",";
         Printf.sprintf "  \"programs\": %d," (List.length corpus);
         Printf.sprintf "  \"validations\": %d," outcomes;
         Printf.sprintf "  \"static_hits\": %d," static_hits;
         Printf.sprintf "  \"refine_hits\": %d," refine_hits;
         Printf.sprintf "  \"refine_misses\": %d," refine_misses;
         Printf.sprintf "  \"exhaustive_runs\": %d," exhaustive_runs;
         Printf.sprintf "  \"fast_path_rate\": %.3f,"
           (if outcomes = 0 then 0.
            else float_of_int decided_fast /. float_of_int outcomes);
         Printf.sprintf "  \"auto_wall_s\": %.4f," auto_wall;
         Printf.sprintf "  \"exhaustive_wall_s\": %.4f," exh_wall;
         Printf.sprintf "  \"sweep_reps\": %d," sweep_reps;
         Printf.sprintf "  \"all_verdicts_agree\": %b," all_agree;
         Printf.sprintf "  \"state_budget\": %d," state_budget;
         "  \"corpus\": [";
       ]
      @ [ String.concat ",\n" corpus_rows ]
      @ [ "  ],"; "  \"scaling\": [" ]
      @ [ String.concat ",\n" scaling_rows ]
      @ [ "  ]"; "}" ])
  in
  let oc = open_out "BENCH_refine.json" in
  output_string oc json;
  output_char oc '\n';
  close_out oc;
  Fmt.pr "  wrote BENCH_refine.json@.";
  !all_hold

(* ------------------------------------------------------------------ *)
(* P7: the lock-free atomic pack -> BENCH_rmw.json                     *)
(* ------------------------------------------------------------------ *)

(* The RMW acceptance gates, timed: (1) every lock-free scenario passes
   its exhaustive litmus validation; (2) the store-buffer machines give
   SB-with-xchg no relaxed outcome (RMWs flush); (3) the default
   pipeline over the pack, per-pass-validated under [Auto], agrees with
   [Exhaustive] — atomic threads make the refine rung return Bounded,
   so the metrics show how often the ladder escalates on this
   atomic-heavy corpus (contrast BENCH_refine.json's fast-path rate on
   the full corpus). *)
let lock_free_pack =
  [
    Corpus.atomic_faa_counter;
    Corpus.atomic_ticket_lock;
    Corpus.atomic_treiber;
    Corpus.atomic_sense_barrier;
    Corpus.atomic_spin_then_block;
    Corpus.atomic_sb_xchg;
  ]

let rmw_bench () =
  let open Safeopt_opt in
  hr "P7: lock-free atomic pack -> BENCH_rmw.json";
  Fmt.pr "  %-24s %-8s %12s@." "scenario" "litmus" "wall (ms)";
  let walls =
    List.map
      (fun (l : Litmus.t) ->
        let o, wall = time (fun () -> Litmus.check l) in
        let ok = Litmus.passed o in
        Fmt.pr "  %-24s %-8s %12.2f@." l.Litmus.name
          (if ok then "ok" else "FAILED")
          (wall *. 1000.);
        (l.Litmus.name, ok, wall))
      lock_free_pack
  in
  claim "every lock-free scenario passes its expectations" true
    (List.for_all (fun (_, ok, _) -> ok) walls);
  let sb_x = Litmus.program Corpus.atomic_sb_xchg in
  let tso_flush =
    Behaviour.Set.is_empty (Safeopt_tso.Machine.weak_behaviours sb_x)
  in
  let pso_flush =
    Behaviour.Set.is_empty (Safeopt_tso.Pso.weak_behaviours sb_x)
  in
  claim "SB-with-xchg has no relaxed TSO outcome (buffer flushed)" true
    tso_flush;
  claim "nor under PSO (all per-location buffers flushed)" true pso_flush;
  let spec =
    match Pipeline.parse "constprop;copyprop;cse*;dead-moves;dse;normalise"
    with
    | Ok s -> s
    | Error e -> failwith e
  in
  let sweep validator =
    List.map
      (fun (l : Litmus.t) ->
        ( l.Litmus.name,
          Pipeline.run ~validate_each:true ~validator spec
            (Litmus.program l) ))
      lock_free_pack
  in
  Obs.Metrics.reset_global ();
  Obs.Metrics.set_enabled true;
  let auto_runs, auto_wall = time (fun () -> sweep Validate.Auto) in
  Obs.Metrics.set_enabled false;
  let counter n =
    Option.value ~default:0 Obs.Metrics.(find_counter global n)
  in
  let outcomes = counter "validate.outcomes" in
  let static_hits = counter "validate.static_hits" in
  let refine_hits = counter "validate.refine_hits" in
  let refine_misses = counter "validate.refine_misses" in
  let exhaustive_runs = counter "validate.exhaustive_runs" in
  let exh_runs, exh_wall = time (fun () -> sweep Validate.Exhaustive) in
  let verdict (o : Pipeline.outcome) =
    match o.Pipeline.failure with
    | None -> "ok"
    | Some (pass, _) -> "REJECTED at " ^ pass
  in
  let agreements =
    List.map2
      (fun (name, (a : Pipeline.outcome)) (_, (e : Pipeline.outcome)) ->
        let agree =
          verdict a = verdict e && Ast.equal_program a.final e.final
        in
        (name, verdict a, agree))
      auto_runs exh_runs
  in
  let all_agree = List.for_all (fun (_, _, a) -> a) agreements in
  List.iter
    (fun (name, v, agree) ->
      Fmt.pr "  %-24s auto: %-10s agree with exhaustive: %b@." name v agree)
    agreements;
  Fmt.pr
    "  validations: %d  static: %d  refine: %d  escalated: %d  exhaustive \
     runs: %d@."
    outcomes static_hits refine_hits refine_misses exhaustive_runs;
  Fmt.pr "  auto sweep: %.2f ms; exhaustive sweep: %.2f ms@."
    (auto_wall *. 1000.) (exh_wall *. 1000.);
  claim "auto and exhaustive pipeline verdicts agree on the pack" true
    all_agree;
  claim "no atomic-bearing rewrite is decided by the refine rung" true
    (refine_hits = 0 || outcomes > refine_hits);
  let scenario_rows =
    List.map2
      (fun (name, ok, wall) (_, v, agree) ->
        Printf.sprintf
          "    {\"name\": %S, \"litmus_ok\": %b, \"litmus_wall_s\": %.6f, \
           \"pipeline_verdict\": %S, \"ladder_agrees\": %b}"
          name ok wall v agree)
      walls agreements
  in
  let json =
    String.concat "\n"
      ([
         "{";
         "  \"schema\": \"bench_rmw/v1\",";
         "  \"pipeline\": \"constprop;copyprop;cse*;dead-moves;dse;normalise\",";
         Printf.sprintf "  \"scenarios\": %d," (List.length lock_free_pack);
         Printf.sprintf "  \"tso_flush\": %b," tso_flush;
         Printf.sprintf "  \"pso_flush\": %b," pso_flush;
         Printf.sprintf "  \"validations\": %d," outcomes;
         Printf.sprintf "  \"static_hits\": %d," static_hits;
         Printf.sprintf "  \"refine_hits\": %d," refine_hits;
         Printf.sprintf "  \"refine_misses\": %d," refine_misses;
         Printf.sprintf "  \"exhaustive_runs\": %d," exhaustive_runs;
         Printf.sprintf "  \"fast_path_rate\": %.3f,"
           (if outcomes = 0 then 0.
            else
              float_of_int (static_hits + refine_hits)
              /. float_of_int outcomes);
         Printf.sprintf "  \"auto_wall_s\": %.4f," auto_wall;
         Printf.sprintf "  \"exhaustive_wall_s\": %.4f," exh_wall;
         Printf.sprintf "  \"all_verdicts_agree\": %b," all_agree;
         "  \"scenarios_detail\": [";
       ]
      @ [ String.concat ",\n" scenario_rows ]
      @ [ "  ]"; "}" ])
  in
  let oc = open_out "BENCH_rmw.json" in
  output_string oc json;
  output_char oc '\n';
  close_out oc;
  Fmt.pr "  wrote BENCH_rmw.json@."

(* ------------------------------------------------------------------ *)
(* P8: pass x memory-model portability -> BENCH_portability.json       *)
(* ------------------------------------------------------------------ *)

(* Sweep the pass registry over the litmus corpus under each memory
   model and pin the portability asymmetries as claims: at least one
   pass must be safe under SC yet unsafe under TSO (the compiler
   reordering the store buffer exposes), and every unsafe cell's
   counterexample behaviour must replay from scratch under its model.
   [quick] trims the registry to the four passes that carry the
   asymmetries — the CI smoke mode. *)
let portability_bench ?(quick = false) () =
  let open Safeopt_litmus in
  hr "P8: pass x memory-model portability matrix -> BENCH_portability.json";
  let passes =
    if quick then
      List.filter
        (fun (p : Safeopt_opt.Pass.t) ->
          List.mem p.Safeopt_opt.Pass.name
            [ "dead-stores"; "store-load-reorder"; "read-intro"; "redundancy" ])
        Safeopt_opt.Pipeline.registry
    else Safeopt_opt.Pipeline.registry
  in
  let m, wall = time (fun () -> Portability.sweep ~passes ()) in
  Fmt.pr "%a" Portability.pp m;
  let verdict_of ~pass ~model =
    Option.map
      (fun c -> c.Portability.c_verdict)
      (Portability.cell m ~pass ~model)
  in
  let sc_safe_tso_unsafe =
    List.filter
      (fun pass ->
        match
          ( verdict_of ~pass ~model:Safeopt_model.Memory_model.Sc,
            verdict_of ~pass ~model:Safeopt_model.Memory_model.Tso )
        with
        | Some Portability.Safe, Some (Portability.Unsafe _) -> true
        | _ -> false)
      m.Portability.passes
  in
  let unsafe = Portability.unsafe_cells m in
  let weak_unsafe_replayed =
    List.for_all
      (fun ((c : Portability.cell), (u : Portability.unsafe_evidence)) ->
        Safeopt_model.Memory_model.equal c.Portability.c_model
          Safeopt_model.Memory_model.Sc
        || u.Portability.u_replayed)
      unsafe
  in
  Fmt.pr "  SC-safe but TSO-unsafe passes: %a@."
    Fmt.(list ~sep:(any ", ") string)
    sc_safe_tso_unsafe;
  claim "some pass is safe under SC but unsafe under TSO" true
    (sc_safe_tso_unsafe <> []);
  claim "every weak-model unsafe cell's witness replays from scratch" true
    weak_unsafe_replayed;
  let cell_rows =
    List.map
      (fun (c : Portability.cell) ->
        let extra =
          match c.Portability.c_verdict with
          | Portability.Unsafe u ->
              Printf.sprintf ", \"test\": %S, \"behaviour\": %S, \
                              \"replayed\": %b"
                u.Portability.u_test
                (match u.Portability.u_behaviour with
                | Some b -> Fmt.str "%a" Behaviour.pp b
                | None -> "")
                u.Portability.u_replayed
          | _ -> ""
        in
        Printf.sprintf
          "    {\"pass\": %S, \"model\": %S, \"verdict\": %S, \"checked\": \
           %d%s}"
          c.Portability.c_pass
          (Safeopt_model.Memory_model.name c.Portability.c_model)
          (Portability.verdict_tag c.Portability.c_verdict)
          c.Portability.c_checked extra)
      m.Portability.cells
  in
  let json =
    String.concat "\n"
      ([
         "{";
         "  \"schema\": \"bench_portability/v1\",";
         Printf.sprintf "  \"quick\": %b," quick;
         Printf.sprintf "  \"passes\": %d," (List.length m.Portability.passes);
         Printf.sprintf "  \"models\": %d," (List.length m.Portability.models);
         Printf.sprintf "  \"tests\": %d," (List.length m.Portability.tests);
         Printf.sprintf "  \"wall_s\": %.4f," wall;
         Printf.sprintf "  \"sc_safe_tso_unsafe\": [%s],"
           (String.concat ", "
              (List.map (Printf.sprintf "%S") sc_safe_tso_unsafe));
         Printf.sprintf "  \"weak_unsafe_witnesses_replayed\": %b,"
           weak_unsafe_replayed;
         "  \"cells\": [";
       ]
      @ [ String.concat ",\n" cell_rows ]
      @ [ "  ]"; "}" ])
  in
  let oc = open_out "BENCH_portability.json" in
  output_string oc json;
  output_char oc '\n';
  close_out oc;
  Fmt.pr "  wrote BENCH_portability.json@."

(* ------------------------------------------------------------------ *)
(* obs-overhead: the disabled-telemetry cost guard                     *)
(* ------------------------------------------------------------------ *)

(* The instrumentation contract is that a disabled call site costs one
   flag load and one branch — no closure, no allocation.  This mode
   pins it three ways and exits 1 on any violation, so CI catches an
   accidentally-allocating guard:
     1. [Gc.minor_words] across a million disabled guard hits stays
        below a thousand words (i.e. the loop itself allocates nothing;
        the slack absorbs unrelated runtime noise);
     2. a disabled guard hit costs well under 20 ns;
     3. two interleaved runs of the same macro workload (corpus
        behaviour enumeration, all guards disabled) land within 1.25x
        of each other — the instrumented hot loops are within run-to-run
        noise of themselves. *)
let obs_overhead () =
  hr "obs-overhead: disabled-telemetry cost guard";
  let failed = ref false in
  let check name ok detail =
    Fmt.pr "  %-58s %s (%s)@." name (if ok then "OK" else "VIOLATION") detail;
    if not ok then failed := true
  in
  assert (not (Obs.Tracer.enabled ()));
  assert (not (Obs.Metrics.enabled ()));
  assert (not (Obs.Snapshot.enabled ()));
  let hits = 1_000_000 in
  let sink = ref 0 in
  (* 1: allocation-free fast path *)
  let w0 = Gc.minor_words () in
  for _ = 1 to hits do
    if Obs.Tracer.enabled () then incr sink;
    if Obs.Metrics.enabled () then incr sink;
    if Obs.Snapshot.enabled () then incr sink
  done;
  let dw = Gc.minor_words () -. w0 in
  check "disabled guards allocate nothing" (dw < 1_000.)
    (Printf.sprintf "%.0f minor words / %d hits" dw hits);
  (* 2: per-hit cost *)
  let t0 = Clock.now () in
  for _ = 1 to hits do
    if Obs.Tracer.enabled () then incr sink
  done;
  let ns = Clock.elapsed t0 *. 1e9 /. float_of_int hits in
  check "disabled guard costs < 20 ns" (ns < 20.)
    (Printf.sprintf "%.2f ns/hit" ns);
  ignore (Sys.opaque_identity !sink);
  (* 3: macro A/A stability with every guard on the hot paths disabled *)
  let programs = List.map Litmus.program Corpus.all in
  let macro () =
    List.iter (fun p -> ignore (Interp.behaviours p)) programs
  in
  macro ();
  (* warm-up *)
  let wa = ref 0. and wb = ref 0. in
  for _ = 1 to 5 do
    let _, w = time macro in
    wa := !wa +. w;
    let _, w = time macro in
    wb := !wb +. w
  done;
  let ratio = Float.max (!wa /. !wb) (!wb /. !wa) in
  check "interleaved A/A macro runs within 1.25x" (ratio < 1.25)
    (Printf.sprintf "%.4fs vs %.4fs, ratio %.3f" !wa !wb ratio);
  if !failed then exit 1;
  Fmt.pr "  disabled-telemetry overhead within bounds@."

(* ------------------------------------------------------------------ *)
(* Bechamel timing                                                     *)
(* ------------------------------------------------------------------ *)

let bechamel_tests () =
  let open Bechamel in
  let t name f = Test.make ~name (Staged.stage f) in
  let sb = Litmus.program Corpus.sb in
  let fig1_o = Litmus.program Corpus.fig1_original in
  let fig1_t = Litmus.program Corpus.fig1_transformed in
  let fig1_uni = Denote.joint_universe [ fig1_o; fig1_t ] in
  let fig1_tso = Denote.traceset ~universe:fig1_uni ~max_len:10 fig1_o in
  let fig1_tst = Denote.traceset ~universe:fig1_uni ~max_len:10 fig1_t in
  let fig3a = Litmus.program Corpus.fig3_a in
  let oota = Litmus.program Corpus.oota in
  let oota_ts = Denote.traceset ~universe:[ 0; 42 ] ~max_len:8 oota in
  [
    Test.make_grouped ~name:"figures"
      [
        t "e1_intro_behaviours" (fun () ->
            Interp.behaviours (Litmus.program Corpus.intro_racy));
        t "e2_fig1_elimination_check" (fun () ->
            Safeopt_core.Elimination.is_elimination vol0 ~original:fig1_tso
              ~universe:fig1_uni ~transformed:fig1_tst);
        t "e3_fig2_reorder_via_closure" (fun () ->
            Safeopt_core.Reorder.is_reordering_of_oracle vol0
              ~mem:(fun tr ->
                Safeopt_core.Elimination.is_member vol0
                  ~original:fig2_original_ts ~universe:[ 0; 1 ] tr)
              ~transformed:fig2_transformed_ts);
        t "e4_fig3_pipeline" (fun () ->
            Safeopt_opt.Passes.eliminate_reads_across_acquires
              (Safeopt_opt.Passes.introduce_irrelevant_reads fig3a));
        t "e5_matrix" (fun () ->
            ( Safeopt_core.Reorder.matrix ~same_location:false,
              Safeopt_core.Reorder.matrix ~same_location:true ));
        t "e6_fig4_depermute" (fun () ->
            Safeopt_core.Reorder.de_permutes vol0 fig4_f fig4_t'
              ~mem:(fun tr -> Traceset.mem tr fig4_t_bar));
        t "e7_fig5_unelimination" (fun () ->
            Safeopt_core.Unelimination.construct_from_traceset fig5_vol
              ~original:fig5_original_ts ~universe:[ 0; 1 ] fig5_i');
        t "e8_oota_origins" (fun () ->
            Safeopt_core.Origin.traceset_has_origin 42 oota_ts);
        t "e9_sec4_elimination" (fun () -> e9_check ());
        t "e12_tso_sb" (fun () -> Safeopt_tso.Machine.weak_behaviours sb);
        t "e13_pso_mp" (fun () ->
            Safeopt_tso.Pso.weak_behaviours (Litmus.program Corpus.mp));
        t "e14_robust_sb" (fun () -> Safeopt_tso.Robustness.enforce sb);
      ];
    Test.make_grouped ~name:"scaling"
      (List.concat_map
         (fun n ->
           let p = writer_reader_program n in
           [
             t (Printf.sprintf "behaviours_%dt" n) (fun () ->
                 Interp.behaviours p);
             t (Printf.sprintf "drf_%dt" n) (fun () -> Interp.is_drf p);
           ])
         [ 1; 2; 3 ]);
    Test.make_grouped ~name:"por_ablation"
      (List.concat_map
         (fun (n, k) ->
           let p = private_work_program n k in
           [
             t (Printf.sprintf "full_%dt_%dp" n k) (fun () ->
                 full_count_states p);
             t (Printf.sprintf "por_%dt_%dp" n k) (fun () ->
                 Interp.count_states p);
           ])
         [ (2, 2); (3, 2) ]);
    Test.make_grouped ~name:"infrastructure"
      [
        t "parse_corpus" (fun () -> List.map Litmus.program Corpus.all);
        t "litmus_sb_check" (fun () -> Litmus.check Corpus.sb);
        t "optimise_pipeline" (fun () ->
            Safeopt_opt.Passes.optimise (Litmus.program Corpus.mp_locked));
      ];
  ]

let run_bechamel () =
  let open Bechamel in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~stabilize:true ()
  in
  hr "Bechamel timings (ns per run, OLS on monotonic clock)";
  List.iter
    (fun test ->
      let raw = Benchmark.all cfg instances test in
      let results =
        List.map (fun instance -> Analyze.all ols instance raw) instances
      in
      let results = Analyze.merge ols instances results in
      Hashtbl.iter
        (fun _instance tbl ->
          let rows = Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [] in
          List.sort (fun (a, _) (b, _) -> String.compare a b) rows
          |> List.iter (fun (name, ols_result) ->
                 match Analyze.OLS.estimates ols_result with
                 | Some [ est ] -> Fmt.pr "  %-44s %14.1f ns@." name est
                 | _ -> Fmt.pr "  %-44s (no estimate)@." name))
        results)
    (bechamel_tests ())

let () =
  (* `dune exec bench/main.exe -- explore` runs just the exploration
     benchmark (and writes BENCH_explore.json; `explore-quick` is the
     low-rep CI mode, comparable through rate fields); `-- pipeline` (or
     `pipeline-quick`, the CI smoke mode) just the pass-manager one
     (BENCH_pipeline.json); `-- parallel [jobs]` (or `parallel-quick
     [jobs]`) the sequential-vs-parallel comparison
     (BENCH_parallel.json); `-- refine` (or `refine-quick`) the
     validator-ladder differential and scaling comparison
     (BENCH_refine.json; exits 1 when a claim mismatches); `-- rmw` the
     lock-free atomic pack gates (BENCH_rmw.json); `-- portability` (or
     `portability-quick`) the pass x memory-model matrix
     (BENCH_portability.json);
     `-- obs-overhead` the disabled-telemetry cost guard (exits 1 when
     the guards are not free); the default runs the full reproduction
     suite. *)
  match Sys.argv with
  | [| _; "explore" |] -> explore_bench ()
  | [| _; "explore-quick" |] -> explore_bench ~quick:true ()
  | [| _; "obs-overhead" |] -> obs_overhead ()
  | [| _; "pipeline" |] -> pipeline_bench ()
  | [| _; "pipeline-quick" |] -> pipeline_bench ~quick:true ()
  | [| _; "parallel" |] -> parallel_bench ~jobs:4 ()
  | [| _; "parallel"; j |] -> parallel_bench ~jobs:(int_of_string j) ()
  | [| _; "parallel-quick" |] -> parallel_bench ~quick:true ~jobs:2 ()
  | [| _; "parallel-quick"; j |] ->
      parallel_bench ~quick:true ~jobs:(int_of_string j) ()
  | [| _; "refine" |] -> if not (refine_bench ()) then exit 1
  | [| _; "refine-quick" |] ->
      if not (refine_bench ~quick:true ()) then exit 1
  | [| _; "rmw" |] -> rmw_bench ()
  | [| _; "portability" |] -> portability_bench ()
  | [| _; "portability-quick" |] -> portability_bench ~quick:true ()
  | _ ->
      e1 ();
      e2 ();
      e3 ();
      e4 ();
      e5 ();
      e6 ();
      e7 ();
      e8 ();
      e9 ();
      e10 ();
      e11 ();
      e12 ();
      e13 ();
      e14 ();
      p1 ();
      p2 ();
      explore_bench ();
      pipeline_bench ();
      parallel_bench ~jobs:4 ();
      let refine_holds = refine_bench () in
      rmw_bench ();
      portability_bench ();
      run_bechamel ();
      Fmt.pr "@.done.@.";
      if not refine_holds then exit 1
