(* Domain-parallel exploration: every parallel entry point must produce
   results identical to its sequential counterpart (the Par determinism
   contract), and the pool/queue primitives themselves must behave.

   A pooled exploration of a small program is decided by the sequential
   engine (see [Explorer.steal_after]), so the parity checks run the
   work-stealing engine through [Explorer.Parallel] (the [par_*]
   helpers), and the engine-choice tests pin which engine a pooled call
   uses. *)

open Safeopt_exec
open Safeopt_lang
open Safeopt_litmus
open Safeopt_gen
open Helpers

let check_b = Alcotest.(check bool)
let check_i = Alcotest.(check int)

(* One pool for the whole binary: spawning domains per test case would
   dominate the runtime.  Size 4 also oversubscribes small CI hosts,
   which is exactly the scheduling noise the determinism tests should
   survive. *)
let pool = Par.Pool.create 4

(* A second, smaller pool so parity properties cover jobs ∈ {1, 2, 4}. *)
let pool2 = Par.Pool.create 2

(* --- primitives ------------------------------------------------------- *)

let test_resolve_jobs () =
  check_i "0 resolves to the recommended domain count"
    (Domain.recommended_domain_count ())
    (Par.resolve_jobs 0);
  check_i "positive job counts pass through" 3 (Par.resolve_jobs 3);
  Alcotest.check_raises "negative job counts are rejected"
    (Invalid_argument "Par.resolve_jobs: negative job count") (fun () ->
      ignore (Par.resolve_jobs (-1)))

let test_pool_map_list () =
  let xs = List.init 100 Fun.id in
  let ys = Par.Pool.map_list pool (fun i x -> (i, x * x)) xs in
  check_b "results in input order with their indices" true
    (List.for_all2 (fun x (i, y) -> i = x && y = x * x) xs ys)

exception Boom

let test_pool_exception () =
  check_b "a worker exception reaches the caller" true
    (try
       ignore
         (Par.Pool.map_list pool
            (fun _ x -> if x = 37 then raise Boom else x)
            (List.init 64 Fun.id));
       false
     with Boom -> true);
  check_i "the pool survives and runs the next job" 10
    (List.length (Par.Pool.map_list pool (fun _ x -> x) (List.init 10 Fun.id)))

(* --- Chase–Lev deque --------------------------------------------------- *)

let test_deque_orders () =
  let d = Par.Deque.create () in
  check_b "a fresh deque is empty" true (Par.Deque.pop d = None);
  check_b "a fresh deque yields no steals" true (Par.Deque.steal d = None);
  List.iter (Par.Deque.push d) [ 0; 1; 2; 3; 4 ];
  check_i "owner sees the deque size" 5 (Par.Deque.size d);
  check_b "owner pops newest first (LIFO)" true (Par.Deque.pop d = Some 4);
  check_b "thief steals oldest first (FIFO)" true (Par.Deque.steal d = Some 0);
  check_b "steal order advances" true (Par.Deque.steal d = Some 1);
  check_b "owner keeps popping from the bottom" true
    (Par.Deque.pop d = Some 3);
  check_b "last element goes to exactly one side" true
    (Par.Deque.pop d = Some 2);
  check_b "deque is empty again" true
    (Par.Deque.pop d = None && Par.Deque.steal d = None);
  (* growth across the initial buffer size preserves both orders *)
  let n = 1000 in
  for i = 0 to n - 1 do
    Par.Deque.push d i
  done;
  check_b "after growth, steals walk 0,1,2.." true
    (List.init 10 (fun _ -> Par.Deque.steal d)
    = List.init 10 (fun i -> Some i));
  check_b "after growth, pops walk n-1,n-2.." true
    (List.init 10 (fun _ -> Par.Deque.pop d)
    = List.init 10 (fun i -> Some (n - 1 - i)))

let test_deque_steal_half () =
  let victim = Par.Deque.create () in
  let mine = Par.Deque.create () in
  List.iter (Par.Deque.push victim) [ 0; 1; 2; 3; 4; 5; 6; 7 ];
  (match Par.Deque.steal_half victim ~into:mine with
  | Some (first, taken) ->
      check_i "the oldest element is returned for processing" 0 first;
      check_i "half of the victim's items are claimed" 4 taken;
      check_i "surplus lands in the thief's deque" 3 (Par.Deque.size mine)
  | None -> Alcotest.fail "steal_half found nothing in a full deque");
  check_i "the victim keeps the other half" 4 (Par.Deque.size victim);
  check_b "thief's copies arrived in steal order" true
    (Par.Deque.steal mine = Some 1);
  check_b "stealing an empty victim reports None" true
    (Par.Deque.steal_half (Par.Deque.create ()) ~into:mine = None)

(* Two thief domains against a pushing-and-popping owner: every pushed
   element must come out exactly once, across all three parties. *)
let test_deque_stress () =
  let d = Par.Deque.create () in
  let n = 20_000 in
  let stop = Atomic.make false in
  let thief () =
    let acc = ref [] in
    let rec drain () =
      match Par.Deque.steal d with
      | Some x ->
          acc := x :: !acc;
          drain ()
      | None -> ()
    in
    while not (Atomic.get stop) do
      (match Par.Deque.steal d with
      | Some x -> acc := x :: !acc
      | None -> Domain.cpu_relax ());
      ()
    done;
    drain ();
    !acc
  in
  let t1 = Domain.spawn thief in
  let t2 = Domain.spawn thief in
  let mine = ref [] in
  for i = 0 to n - 1 do
    Par.Deque.push d i;
    if i mod 3 = 0 then
      match Par.Deque.pop d with
      | Some x -> mine := x :: !mine
      | None -> ()
  done;
  let rec drain () =
    match Par.Deque.pop d with
    | Some x ->
        mine := x :: !mine;
        drain ()
    | None -> ()
  in
  drain ();
  Atomic.set stop true;
  let stolen1 = Domain.join t1 in
  let stolen2 = Domain.join t2 in
  let all = List.sort compare (!mine @ stolen1 @ stolen2) in
  check_i "every pushed element came out exactly once" n (List.length all);
  check_b "no element was lost or duplicated" true
    (List.for_all2 ( = ) all (List.init n Fun.id))

(* --- exploration determinism ----------------------------------------- *)

let test_corpus_determinism () =
  List.iter
    (fun (t : Litmus.t) ->
      let p = Litmus.program t in
      let seq = Interp.behaviours p in
      let par1 = par_behaviours ~pool p in
      let par2 = par_behaviours ~pool p in
      if not (Behaviour.Set.equal seq par1) then
        Alcotest.failf "%s: parallel behaviours differ from sequential"
          t.Litmus.name;
      if not (Behaviour.Set.equal par1 par2) then
        Alcotest.failf "%s: two parallel runs disagree" t.Litmus.name;
      if Interp.is_drf p <> Option.is_none (par_find_race ~pool p) then
        Alcotest.failf "%s: parallel DRF verdict differs" t.Litmus.name;
      if Interp.count_states p <> par_count_states ~pool p then
        Alcotest.failf "%s: parallel state count differs" t.Litmus.name;
      (* the unreduced engine, the reference of every POR check *)
      if
        not
          (Behaviour.Set.equal (full_behaviours p)
             (par_full_behaviours ~pool p))
      then
        Alcotest.failf "%s: unreduced parallel behaviours differ"
          t.Litmus.name;
      if Option.is_some (full_find_race p)
         <> Option.is_some (par_full_find_race ~pool p)
      then
        Alcotest.failf "%s: unreduced parallel DRF verdict differs"
          t.Litmus.name;
      if full_count_states p <> par_full_count_states ~pool p then
        Alcotest.failf "%s: unreduced parallel state count differs"
          t.Litmus.name)
    Corpus.all

(* A one-shot ?jobs call (no pre-built pool) creates its pool only if
   it escalates past [steal_after]; jobs = 1 never does. *)
let test_jobs_entry () =
  let p = Litmus.program Corpus.sb in
  Alcotest.check behaviour_set "jobs:2 equals sequential"
    (Interp.behaviours p)
    (Interp.behaviours ~jobs:2 p);
  Alcotest.check behaviour_set "jobs:1 equals sequential"
    (Interp.behaviours p)
    (Interp.behaviours ~jobs:1 p)

let rand () = Random.State.make [| 0x9a7a11e1; 7 |]

let qcheck_parallel_equiv =
  QCheck_alcotest.to_alcotest ~rand:(rand ())
    (QCheck2.Test.make
       ~name:"parallel behaviours equal sequential (300 random programs)"
       ~count:300 ~print:Generators.print_program Generators.program (fun p ->
         Behaviour.Set.equal (Interp.behaviours p) (par_behaviours ~pool p)))

(* The headline parity property of the work-stealing engine: behaviour
   sets AND state counts are identical across jobs ∈ {1, 2, 4}, with
   and without the reduction (parallel work items carry their own sleep
   sets, so POR prunes identically at any worker count).  The generated
   programs include Atomic/RMW threads (see Generators.simple_stmt). *)
let qcheck_jobs_parity =
  QCheck_alcotest.to_alcotest ~rand:(rand ())
    (QCheck2.Test.make
       ~name:
         "count_states and behaviours identical across jobs {1,2,4} (300 \
          random programs, POR on and off)"
       ~count:300 ~print:Generators.print_program Generators.program (fun p ->
         let parity (b1, c1) par_beh par_count =
           List.for_all
             (fun pool ->
               Behaviour.Set.equal b1 (par_beh ~pool p)
               && c1 = par_count ~pool p)
             [ pool2; pool ]
         in
         parity
           (full_behaviours p, full_count_states p)
           (fun ~pool p -> par_full_behaviours ~pool p)
           (fun ~pool p -> par_full_count_states ~pool p)
         && parity
              (Interp.behaviours p, Interp.count_states p)
              (fun ~pool p -> par_behaviours ~pool p)
              (fun ~pool p -> par_count_states ~pool p)))

module Model = Safeopt_model.Memory_model

(* A hardware model's behaviours of [p] on the stealing engine. *)
let par_machine ?stats ~pool m p =
  Explorer.Parallel.machine_behaviours ?stats ~pool
    (Option.get (Model.buffer m))
    p.Ast.volatile (Thread_system.make p)

(* States a store-buffer machine explores on [p]: at jobs 1, or on the
   stealing engine over [pool]. *)
let machine_states m ?pool p =
  let stats = Explorer.create_stats () in
  ignore
    (match pool with
    | None -> Model.behaviours ~stats m p
    | Some pool -> par_machine ~stats ~pool m p);
  stats.Explorer.states

(* Acceptance criterion: POR-reduced state counts match exactly across
   jobs 1/2/4 on the full litmus corpus.  The corpus-wide totals are
   pinned, with the TSO and PSO machines' (unreduced) state counts at
   jobs 1 and on the stealing engine. *)
let test_corpus_por_parity () =
  let programs = List.map Litmus.program Corpus.all in
  let total f = List.fold_left (fun n p -> n + f p) 0 programs in
  List.iter
    (fun (t : Litmus.t) ->
      let p = Litmus.program t in
      let c1 = Interp.count_states p in
      let c2 = par_count_states ~pool:pool2 p in
      let c4 = par_count_states ~pool p in
      if not (c1 = c2 && c2 = c4) then
        Alcotest.failf
          "%s: reduced state counts differ across jobs (1:%d 2:%d 4:%d)"
          t.Litmus.name c1 c2 c4)
    Corpus.all;
  check_i "corpus SC reduced states, jobs 1" 4612
    (total (fun p -> Interp.count_states p));
  check_i "corpus SC reduced states, stealing engine" 4612
    (total (par_count_states ~pool:pool2));
  List.iter
    (fun (name, m, expected) ->
      check_i ("corpus " ^ name ^ " states, jobs 1") expected
        (total (machine_states m));
      check_i ("corpus " ^ name ^ " states, stealing engine") expected
        (total (machine_states m ~pool:pool2)))
    [
      ("TSO", Model.Tso, 6592);
      ("PSO", Model.Pso, 6726);
    ]

(* [sys] counting its [steps] calls per (domain, thread key). *)
let counting_steps (sys : 'ts System.t) =
  let mu = Mutex.create () in
  let calls : (Domain.id * string, int) Hashtbl.t = Hashtbl.create 64 in
  let steps ts =
    let k = (Domain.self (), sys.System.key ts) in
    Mutex.protect mu (fun () ->
        Hashtbl.replace calls k
          (1 + Option.value ~default:0 (Hashtbl.find_opt calls k)));
    sys.System.steps ts
  in
  ({ sys with System.steps }, calls)

(* One exploration of a fresh counting copy of [sys]: [steps] ran once
   per thread key on each domain that asked (one at jobs 1, one per
   worker on the stealing engine), and [thread_states] counts those
   compilations. *)
let steps_once name explore sys =
  let counted, calls = counting_steps sys in
  let stats = Explorer.create_stats () in
  let r = explore ~stats counted in
  Hashtbl.iter
    (fun (_, key) n ->
      if n <> 1 then Alcotest.failf "%s: steps of %s ran %d times" name key n)
    calls;
  check_i (name ^ ": thread_states counts the compilations")
    (Hashtbl.length calls) stats.Explorer.thread_states;
  check_b (name ^ ": something compiled") true (Hashtbl.length calls > 0);
  r

(* A thread state's steps are compiled once per exploration, on every
   engine, for both kinds of thread system; memoising them moves no
   behaviour, state count or race verdict. *)
let test_steps_once () =
  let both name ?local sys =
    let run engine f = steps_once (name ^ " " ^ engine) f sys in
    check_b (name ^ ": behaviours agree") true
      (Behaviour.Set.equal
         (run "behaviours, jobs 1" (fun ~stats s ->
              Explorer.behaviours ?local ~stats s))
         (run "behaviours, stealing" (fun ~stats s ->
              Explorer.Parallel.behaviours ?local ~stats ~pool:pool2 s)));
    check_i (name ^ ": count_states agree")
      (run "count_states, jobs 1" (fun ~stats s ->
           Explorer.count_states ?local ~stats s))
      (run "count_states, stealing" (fun ~stats s ->
           Explorer.Parallel.count_states ?local ~stats ~pool:pool2 s))
  in
  List.iter
    (fun (t : Litmus.t) ->
      let p = Litmus.program t and name = t.Litmus.name in
      let sys = Thread_system.make p in
      both name sys;
      both (name ^ " (reduced)") ~local:(Thread_system.local_actions p) sys;
      let drf engine f =
        Option.is_none
          (steps_once (name ^ " race search, " ^ engine)
             (fun ~stats s -> f ~stats p.Ast.volatile s)
             sys)
      in
      check_b (name ^ ": race verdicts agree")
        (drf "jobs 1" (fun ~stats v s ->
             Explorer.find_adjacent_race ~stats v s))
        (drf "stealing" (fun ~stats v s ->
             Explorer.Parallel.find_adjacent_race ~stats ~pool:pool2 v s)))
    [ Corpus.sb; Corpus.mp_locked; Corpus.atomic_faa_counter ];
  List.iter
    (fun (name, ts) -> both name (Traceset_system.make ts))
    [
      ("fig2 original traceset", fig2_original_traceset);
      ("fig2 transformed traceset", fig2_transformed_traceset);
      ( "sb traceset",
        Denote.traceset ~universe:[ 0; 1 ] ~max_len:6
          (Litmus.program Corpus.sb) );
    ]

(* --- stats aggregation ------------------------------------------------ *)

let test_stats_aggregation () =
  let seq = Explorer.create_stats () in
  ignore (Litmus.check_all ~stats:seq Corpus.all);
  let par = Explorer.create_stats () in
  ignore (Litmus.check_all ~stats:par ~pool Corpus.all);
  check_i "aggregated states equal sequential" seq.Explorer.states
    par.Explorer.states;
  check_i "aggregated transitions equal sequential" seq.Explorer.edges
    par.Explorer.edges;
  check_i "aggregated memo hits equal sequential" seq.Explorer.memo_hits
    par.Explorer.memo_hits;
  check_b "parallel stats record the domain count" true
    (par.Explorer.domains >= 2);
  check_i "sequential stats record no domains" 0 seq.Explorer.domains

(* --- store-buffer machines (TSO/PSO) ------------------------------- *)

let test_machines_parallel () =
  List.iter
    (fun (t : Litmus.t) ->
      let p = Litmus.program t in
      if
        not
          (Behaviour.Set.equal
             (Model.behaviours Model.Tso p)
             (par_machine ~pool Model.Tso p))
      then Alcotest.failf "%s: parallel TSO behaviours differ" t.Litmus.name)
    (List.filteri (fun i _ -> i < 8) Corpus.all);
  let sb = Litmus.program Corpus.sb in
  Alcotest.check behaviour_set "parallel PSO behaviours equal sequential"
    (Model.behaviours Model.Pso sb)
    (par_machine ~pool Model.Pso sb)

(* --- batch validation and the pipeline -------------------------------- *)

let test_validate_batch () =
  let open Safeopt_opt in
  let pairs =
    List.filter_map
      (fun t ->
        let p = Litmus.program t in
        let q = Passes.optimise p in
        if Ast.equal_program p q then None else Some (p, q))
      Corpus.all
  in
  check_b "corpus yields some non-trivial pairs" true (List.length pairs >= 3);
  let seq =
    List.map
      (fun (original, transformed) -> Validate.validate ~original ~transformed ())
      pairs
  in
  let par = Validate.validate_batch ~pool pairs in
  check_b "batch reports identical to sequential" true (seq = par)

let pipeline_spec s =
  match Safeopt_opt.Pipeline.parse s with
  | Ok spec -> spec
  | Error e -> failwith e

let test_pipeline_parallel () =
  let open Safeopt_opt in
  let spec = pipeline_spec "constprop;copyprop;cse*;dead-moves;dse;normalise" in
  List.iter
    (fun (t : Litmus.t) ->
      let p = Litmus.program t in
      let seq = Pipeline.run ~validate_each:true spec p in
      let par = Pipeline.run ~validate_each:true ~pool spec p in
      if not (Ast.equal_program seq.Pipeline.final par.Pipeline.final) then
        Alcotest.failf "%s: parallel pipeline result differs" t.Litmus.name;
      if
        Option.map fst seq.Pipeline.failure
        <> Option.map fst par.Pipeline.failure
      then Alcotest.failf "%s: parallel pipeline verdict differs" t.Litmus.name)
    Corpus.all

(* The speculative parallel pipeline must cut at the same failing pass
   as the incremental sequential one, discarding speculated suffixes. *)
let test_pipeline_reject_parallel () =
  let open Safeopt_opt in
  let spec = pipeline_spec "unsafe-store-release;normalise" in
  let p =
    parse
      "thread { lock m; r1 := c; c := r1; unlock m; }\n\
       thread { lock m; r2 := c; c := r2; unlock m; }"
  in
  let seq = Pipeline.run ~validate_each:true spec p in
  let par = Pipeline.run ~validate_each:true ~pool spec p in
  check_b "sequential run rejects" true (Option.is_some seq.Pipeline.failure);
  check_b "parallel run rejects at the same pass" true
    (Option.map fst seq.Pipeline.failure = Option.map fst par.Pipeline.failure);
  Alcotest.check program "both keep the last accepted program"
    seq.Pipeline.final par.Pipeline.final

(* --- engine choice ------------------------------------------------------ *)

(* The stealing route steals whatever the size of the program: each
   [Explorer.Parallel] function records the pool's domains. *)
let test_parallel_route_steals () =
  let p = Litmus.program Corpus.sb in
  let domains f =
    let s = Explorer.create_stats () in
    ignore (f s);
    s.Explorer.domains
  in
  List.iter
    (fun (what, d) ->
      check_b (what ^ " ran the stealing engine") true (d >= 2))
    [
      ("behaviours", domains (fun stats -> par_behaviours ~stats ~pool p));
      ("count_states", domains (fun stats -> par_count_states ~stats ~pool p));
      ("race search", domains (fun stats -> par_find_race ~stats ~pool p));
      ( "machine",
        domains (fun stats ->
            par_machine ~stats ~pool Model.Tso p) );
    ]

(* A pooled call on a corpus program never reaches [steal_after]: the
   sequential engine decides it and no domain is recorded. *)
let test_small_stays_sequential () =
  List.iter
    (fun (t : Litmus.t) ->
      let p = Litmus.program t in
      let s = Explorer.create_stats () in
      let b = Interp.behaviours ~stats:s ~pool p in
      let c = Interp.count_states ~stats:s ~pool p in
      let drf = Interp.is_drf ~stats:s ~pool p in
      let tso = Model.behaviours ~stats:s ~pool Model.Tso p in
      check_i (t.Litmus.name ^ ": no domains recorded") 0 s.Explorer.domains;
      check_i (t.Litmus.name ^ ": no steals") 0 s.Explorer.steals;
      Alcotest.check behaviour_set (t.Litmus.name ^ ": behaviours as jobs 1")
        (Interp.behaviours p) b;
      check_i (t.Litmus.name ^ ": count as jobs 1") (Interp.count_states p) c;
      check_b (t.Litmus.name ^ ": verdict as jobs 1") (Interp.is_drf p) drf;
      Alcotest.check behaviour_set (t.Litmus.name ^ ": TSO as jobs 1")
        (Model.behaviours Model.Tso p)
        tso)
    [ Corpus.sb; Corpus.mp; Corpus.atomic_faa_counter ]

(* Six threads each reading one shared location twice and printing
   both reads, and a seventh that prints once: the prints keep the
   reduced state space at about 3x10^4 states, above [steal_after]. *)
let above_threshold =
  parse
    (String.concat "\n"
       (List.init 6 (fun _ ->
            "thread { r1 := x; r2 := x; print r2; print r1; }")
       @ [ "thread { print 7; }" ]))

let test_escalation () =
  let p = above_threshold in
  let s1 = Explorer.create_stats () in
  let c1 = Interp.count_states ~stats:s1 p in
  check_b
    (Printf.sprintf "the program is above steal_after (%d > %d)" c1
       Explorer.steal_after)
    true
    (c1 > Explorer.steal_after);
  let s = Explorer.create_stats () in
  let c = Interp.count_states ~stats:s ~pool:pool2 p in
  check_i "escalated count equals jobs 1" c1 c;
  check_i "stats.states is the jobs-1 count, without the abandoned prefix"
    s1.Explorer.states s.Explorer.states;
  check_b "the stealing engine decided" true (s.Explorer.domains >= 2);
  let sb = Explorer.create_stats () in
  Alcotest.check behaviour_set "escalated behaviours equal jobs 1"
    (Interp.behaviours p)
    (Interp.behaviours ~stats:sb ~pool:pool2 p);
  check_b "behaviours escalated" true (sb.Explorer.domains >= 2);
  check_i "a one-shot jobs:2 call escalates to the same count" c1
    (Interp.count_states ~jobs:2 p);
  (* the race search: DRF (reads only), so it exhausts its space *)
  let r1 = Explorer.create_stats () in
  let drf1 = Interp.is_drf ~stats:r1 p in
  let r = Explorer.create_stats () in
  check_b "escalated race verdict equals jobs 1" drf1
    (Interp.is_drf ~stats:r ~pool:pool2 p);
  check_b "race search escalated exactly when past steal_after"
    (r1.Explorer.states > Explorer.steal_after)
    (r.Explorer.domains >= 2)

(* A budget between [steal_after] and the true count: the sequential
   first attempt runs out of [steal_after], the stealing engine then
   out of the caller's budget, exactly as jobs 1 runs out of it.  A
   budget of at most [steal_after] runs the sequential engine alone. *)
let test_budget_between () =
  let p = above_threshold in
  let c1 = Interp.count_states p in
  let max_states = (Explorer.steal_after + c1) / 2 in
  let exceeds f =
    try
      ignore (f ());
      false
    with Explorer.Too_many_states _ -> true
  in
  check_b "jobs 1 exceeds the budget" true
    (exceeds (fun () -> Interp.count_states ~max_states p));
  check_b "the pool exceeds the budget" true
    (exceeds (fun () -> Interp.count_states ~max_states ~pool:pool2 p));
  check_b "pooled behaviours exceed the budget" true
    (exceeds (fun () -> Interp.behaviours ~max_states ~pool:pool2 p));
  let s = Explorer.create_stats () in
  check_b "a budget of steal_after raises under the pool" true
    (exceeds (fun () ->
         Interp.count_states ~stats:s ~max_states:Explorer.steal_after
           ~pool:pool2 p));
  check_i "and never reaches the stealing engine" 0 s.Explorer.domains;
  check_b "a budget above the count does not raise" false
    (exceeds (fun () ->
         Interp.count_states ~max_states:(c1 + 1) ~pool:pool2 p))

(* A cycle found by the sequential first attempt is decisive, as a cycle
   found by either engine always was.  The system is one thread that
   prints forever without changing its key, run under SC and on the TSO
   machine. *)
let test_cyclic_pooled () =
  let spin =
    {
      System.initial = [ () ];
      steps = (fun () -> [ System.Emit (Safeopt_trace.Action.External 1, ()) ]);
      key = (fun () -> "spin");
    }
  in
  let cyclic f =
    try
      ignore (f ());
      false
    with Explorer.Cyclic -> true
  in
  List.iter
    (fun (model, run) ->
      check_b (model ^ ": jobs 1 raises Cyclic") true
        (cyclic (fun () -> run None));
      check_b (model ^ ": the pool raises Cyclic") true
        (cyclic (fun () -> run (Some pool))))
    [
      ("SC", fun pool -> Explorer.behaviours ?pool spin);
      ( "TSO",
        fun pool ->
          Explorer.machine_behaviours ?pool
            (module Safeopt_model.Store_buffer.Tso_buffer)
            Safeopt_trace.Location.Volatile.none
            spin );
    ]

(* The [explorer.*] span names the engine that decided: "seq" for a
   pooled call on a small program, "par" on the stealing route, and
   "seq→par" for an escalated pooled call. *)
let test_engine_attribute () =
  let module Tracer = Safeopt_obs.Tracer in
  let module Event = Safeopt_obs.Event in
  let small = Litmus.program Corpus.sb in
  Tracer.start Tracer.Memory;
  let events =
    Fun.protect
      ~finally:(fun () -> ignore (Tracer.stop () : Event.t list))
      (fun () ->
        ignore (Interp.count_states ~pool small);
        ignore (par_count_states ~pool small);
        ignore (Interp.count_states ~pool above_threshold);
        Tracer.stop ())
  in
  let engines =
    List.filter_map
      (fun (e : Event.t) ->
        match (e.Event.kind, List.assoc_opt "engine" e.Event.attrs) with
        | Event.End, Some (Event.Str v) -> Some v
        | _ -> None)
      events
  in
  Alcotest.(check (list string))
    "one engine attribute per entry point, in call order"
    [ "seq"; "par"; "seq→par" ] engines

let () =
  Alcotest.run "par"
    [
      ( "primitives",
        [
          Alcotest.test_case "resolve_jobs" `Quick test_resolve_jobs;
          Alcotest.test_case "pool map_list" `Quick test_pool_map_list;
          Alcotest.test_case "pool exceptions" `Quick test_pool_exception;
        ] );
      ( "deque",
        [
          Alcotest.test_case "owner LIFO / thief FIFO" `Quick
            test_deque_orders;
          Alcotest.test_case "steal half" `Quick test_deque_steal_half;
          Alcotest.test_case "concurrent steal stress" `Slow
            test_deque_stress;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "corpus" `Slow test_corpus_determinism;
          Alcotest.test_case "jobs entry points" `Quick test_jobs_entry;
          qcheck_parallel_equiv;
          qcheck_jobs_parity;
          Alcotest.test_case "corpus POR count parity" `Slow
            test_corpus_por_parity;
          Alcotest.test_case "steps compiled once per thread key" `Quick
            test_steps_once;
        ] );
      ( "aggregation",
        [ Alcotest.test_case "stats merge" `Slow test_stats_aggregation ] );
      ( "store buffer",
        [ Alcotest.test_case "tso/pso" `Slow test_machines_parallel ] );
      ( "engine pick",
        [
          Alcotest.test_case "stealing route records domains" `Quick
            test_parallel_route_steals;
          Alcotest.test_case "small pooled calls stay sequential" `Quick
            test_small_stays_sequential;
          Alcotest.test_case "escalation past steal_after" `Slow
            test_escalation;
          Alcotest.test_case "budget between steal_after and the count"
            `Slow test_budget_between;
          Alcotest.test_case "cycles under a pool" `Quick test_cyclic_pooled;
          Alcotest.test_case "engine span attribute" `Slow
            test_engine_attribute;
        ] );
      ( "batch",
        [
          Alcotest.test_case "validate_batch" `Slow test_validate_batch;
          Alcotest.test_case "pipeline" `Slow test_pipeline_parallel;
          Alcotest.test_case "pipeline rejection" `Quick
            test_pipeline_reject_parallel;
        ] );
    ]
