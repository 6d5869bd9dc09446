(* drfopt's benchmark: time to a correct verdict over four user flows.

   usage: bench.exe --workload W --seed N --seconds S --trace 0|1
                    [--commit C] [--wrong-reference]

   One caller sends requests in a closed loop (the next request only
   after the previous verdict returns), all in this process.  A pass
   runs every request of the workload once, in an order drawn from the
   seed; a run measures as many passes as take [--seconds] at this
   commit.

   --trace 0 prints the end-to-end metrics, measured with all tracing
   off.  --trace 1 runs untraced passes, then one traced set-up and
   traced passes (the layer calls step by step, see Flows), and prints
   the per-layer metrics per traced pass (the traced set-up's parsing
   counts in [lang.parse_s]), with the spans written to
   perfbench/out/<workload>-<seed>.jsonl for [drfopt report --profile].

   Every verdict is checked against the benchmark's reference answers;
   the last line of standard output is the result object, and any wrong,
   missing or undecided verdict makes the exit code 1.
   [--wrong-reference] corrupts one reference verdict, for the
   benchmark's self-test. *)

module Clock = Safeopt_obs.Clock
module Json = Safeopt_obs.Json
module Par = Safeopt_exec.Par

let workloads =
  [ "optimize-corpus"; "litmus-models"; "portability-matrix"; "many-threads" ]

(* --- command line ------------------------------------------------------ *)

let workload = ref ""
let seed = ref 1
let seconds = ref 10.
let trace = ref 0
let commit = ref "unknown"
let wrong_reference = ref false

let () =
  let spec =
    [
      ("--workload", Arg.Set_string workload, "W one of " ^ String.concat ", " workloads);
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S measured seconds");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end or per-layer metrics");
      ("--commit", Arg.Set_string commit, "C commit of the code under test");
      ("--wrong-reference", Arg.Set wrong_reference, " corrupt one reference verdict");
    ]
  in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) "bench.exe";
  if not (List.mem !workload workloads) then begin
    prerr_endline ("unknown workload: " ^ !workload);
    exit 2
  end;
  if !trace <> 0 && !trace <> 1 then begin
    prerr_endline "--trace takes 0 or 1";
    exit 2
  end

let jobs =
  if !workload = "many-threads" then Domain.recommended_domain_count () else 1

(* --- set-up ------------------------------------------------------------ *)

(* Parse the corpus, generate the programs and create the pool.  Every
   workload parses the corpus and checks it against the reference's
   list of names, so a corpus change cannot silently change the
   workload. *)
let setup () =
  let names =
    List.map
      (fun (t : Flows.Litmus.t) ->
        ignore (Flows.parse t.Flows.Litmus.source);
        t.Flows.Litmus.name)
      Flows.Corpus.all
  in
  if names <> Reference.corpus_names then failwith "corpus differs from the reference";
  match !workload with
  | "optimize-corpus" -> (Flows.optimize_corpus (), ignore)
  | "litmus-models" -> (Flows.litmus_models (), ignore)
  | "portability-matrix" -> (Flows.portability_matrix (), ignore)
  | _ ->
      let pool = Par.Pool.create jobs in
      (Flows.many_threads ~seed:!seed pool, fun () -> Par.Pool.shutdown pool)

let median xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* A set-up takes a few milliseconds at most.  Timed only before the first
   request, it would sample the host's speed at one instant, and on a
   shared host that speed swings by a third from one second to the
   next.  So set-up is timed in batches: one before the first request
   (after an untimed set-up for first-touch costs) and, in untraced
   runs, one after every pass; [setup_s] is the median over the batches,
   the run's typical set-up time under the conditions its requests met.
   A batch sets up again and again for [setup_batch_s] seconds and
   gives the mean time of one set-up and the last set-up made. *)
let setup_batch_s = 0.05

let setup_batch () =
  let start = Clock.now () in
  let rec go n total =
    let t0 = Clock.now () in
    let requests, teardown = setup () in
    let total = total +. Clock.elapsed t0 in
    if Clock.elapsed start >= setup_batch_s then
      (total /. float_of_int n, (requests, teardown))
    else begin
      teardown ();
      go (n + 1) total
    end
  in
  go 1 0.

let setup_times = ref []

let timed_setup () =
  let t, made = setup_batch () in
  setup_times := t :: !setup_times;
  made

let first_setup () =
  let _, teardown = setup () in
  teardown ();
  timed_setup ()

let setup_between_passes () =
  let _, teardown = timed_setup () in
  teardown ()

(* --- the closed loop --------------------------------------------------- *)

let rng = Random.State.make [| !seed |]

let shuffle l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

type result = {
  req : Flows.request;
  verdict : string;
  final : string;
  latency : float;  (** seconds *)
}

let run_request ~traced (r : Flows.request) =
  let t0 = Clock.now () in
  let verdict, final =
    try
      if traced then
        Spans.record "request" ~attrs:[ ("label", Flows.Ev.Str r.Flows.label) ]
          (fun () ->
            let v = r.Flows.traced () in
            Spans.attr "verdict" (Flows.Ev.Str (fst v));
            v)
      else r.Flows.untraced ()
    with e -> ("error:" ^ Printexc.to_string e, "")
  in
  let latency = Clock.elapsed t0 in
  if traced then Flows.run_probes ();
  { req = r; verdict; final; latency }

let wrong (r : result) = r.verdict <> r.req.Flows.expected

(* A run measures a fixed number of passes: as many as fit in
   [--seconds] at the pass times below, measured at the commit that
   introduced the benchmark on a 2-core x86-64 host.  Fixed work keeps
   the number of times each request is timed the same for every run and
   for both sides of a comparison; a slower program just takes longer
   to measure, up to twice [--seconds], after which no new pass
   starts. *)
let nominal_pass_s =
  match !workload with
  | "optimize-corpus" -> 1.4
  | "litmus-models" -> 0.45
  | "portability-matrix" -> 7.5
  | _ -> 2.2

let passes_in budget =
  max 1 (int_of_float (Float.round (budget /. nominal_pass_s)))

(* A pass is every request once, in a fresh seeded order;
   [after_pass] runs between passes, outside every request's time. *)
let run_passes ?(after_pass = ignore) ~traced budget requests =
  let t0 = Clock.now () in
  let rec go n passes =
    if n = 0 || (passes <> [] && Clock.elapsed t0 > 2. *. budget) then
      List.rev passes
    else begin
      let pass = List.map (run_request ~traced) (shuffle requests) in
      after_pass ();
      go (n - 1) (pass :: passes)
    end
  in
  go (passes_in budget) []

(* Warm-up: requests in pass order until a pass ends or a tenth of the
   run (at least half a second, at most two) has gone by; unchecked and
   unmeasured beyond failures. *)
let warm_up requests =
  let t0 = Clock.now () in
  let budget = Float.min 2. (Float.max 0.5 (!seconds /. 10.)) in
  List.filter_map
    (fun r ->
      if Clock.elapsed t0 >= budget then None else Some (run_request ~traced:false r))
    requests

(* --- metrics ----------------------------------------------------------- *)

let quantile q sorted =
  let n = Array.length sorted in
  let k = int_of_float (Float.ceil (q *. float_of_int n)) - 1 in
  sorted.(max 0 (min (n - 1) k))

(* The highest percentile with at least ten samples beyond it: the
   eleventh-largest sample, at level (n - 10) / n. *)
let tail sorted =
  let n = Array.length sorted in
  if n <= 10 then (0.5, quantile 0.5 sorted)
  else (float_of_int (n - 10) /. float_of_int n, sorted.(n - 11))

let peak_heap_mb () =
  let s = Gc.quick_stat () in
  float_of_int (s.Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.

(* --- output ------------------------------------------------------------ *)

let num f = if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.1f" f else Printf.sprintf "%.17g" f

let result_line ~correct ~attempted ~failed metrics =
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    correct attempted failed
    (String.concat ", "
       (List.map
          (fun (name, unit, v) ->
            Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" name (num v) unit)
          metrics))

let host_fingerprint () =
  Json.Obj
    [
      ("nproc", Json.Int (Domain.recommended_domain_count ()));
      ("ocaml", Json.String Sys.ocaml_version);
      ("commit", Json.String !commit);
      ("seed", Json.Int !seed);
      ("jobs", Json.Int jobs);
      ("workload", Json.String !workload);
      ("seconds", Json.Float !seconds);
      ("trace", Json.Int !trace);
    ]

let detail fields = print_endline (Json.to_string (Json.Obj fields))

let failures results =
  List.filter wrong results
  |> List.map (fun r ->
         Json.Obj
           [
             ("request", Json.String r.req.Flows.label);
             ("expected", Json.String r.req.Flows.expected);
             ("verdict", Json.String r.verdict);
           ])

(* --- main -------------------------------------------------------------- *)

let () =
  let requests, teardown = first_setup () in
  let requests =
    match requests with
    | r :: rest when !wrong_reference -> { r with Flows.expected = "deliberately-wrong" } :: rest
    | l -> l
  in
  let warm = warm_up requests in
  let exit_code =
    if !trace = 0 then begin
      let passes =
        run_passes ~after_pass:setup_between_passes ~traced:false !seconds requests
      in
      let all = List.concat passes in
      (* A request's time to verdict is its fastest over the run's
         passes.  The program is deterministic, and on a shared host
         other tenants only ever add time, in stretches whose length and
         share of a run change from minute to minute; the fastest of
         many timings spread over the run tracks the program's own cost
         and moves less with the host's load than a mean or a median
         does.  The latency metrics are over the requests, one
         sample each, and the rate is that of a pass at these times. *)
      let best = Hashtbl.create 128 in
      List.iter
        (fun r ->
          let label = r.req.Flows.label in
          match Hashtbl.find_opt best label with
          | Some t when t <= r.latency -> ()
          | _ -> Hashtbl.replace best label r.latency)
        all;
      let lat = Array.of_seq (Seq.map (fun t -> t *. 1000.) (Hashtbl.to_seq_values best)) in
      Array.sort Float.compare lat;
      let level, tail_ms = tail lat in
      let per_s =
        float_of_int (Array.length lat) /. (Array.fold_left ( +. ) 0. lat /. 1000.)
      in
      let failed = List.length (List.filter wrong (warm @ all)) in
      let attempted = List.length (warm @ all) in
      detail
        [
          ("host", host_fingerprint ());
          ("passes", Json.Int (List.length passes));
          ("requests_per_pass", Json.Int (List.length requests));
          ("setup_batches", Json.Int (List.length !setup_times));
          ("latency_samples", Json.Int (Array.length lat));
          ("latency_tail_level", Json.Float level);
          ("failed_rate", Json.Float (float_of_int failed /. float_of_int attempted));
          ("failures", Json.List (failures (warm @ all)));
        ];
      result_line ~correct:(failed = 0) ~attempted ~failed
        [
          ("setup_s", "s", median !setup_times);
          ("verdicts_per_s", "1/s", per_s);
          ("latency_p50_ms", "ms", quantile 0.5 lat);
          ("latency_tail_ms", "ms", tail_ms);
          ("peak_heap_mb", "MB", peak_heap_mb ());
        ];
      if failed = 0 then 0 else 1
    end
    else begin
      let untraced = run_passes ~traced:false (!seconds *. 0.4) requests in
      Spans.start ();
      (* one traced set-up, so the parser's spans are recorded too *)
      let _, traced_teardown = setup () in
      traced_teardown ();
      let traced = run_passes ~traced:true (!seconds *. 0.6) requests in
      Spans.stop ();
      let spans = Spans.all () in
      (try
         let dir = Filename.concat "perfbench" "out" in
         if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
         Spans.write
           (Filename.concat dir (Printf.sprintf "%s-%d.jsonl" !workload !seed))
           spans
       with Sys_error e -> prerr_endline ("cannot write the trace: " ^ e));
      let n = float_of_int (List.length traced) in
      let self = Spans.self_times spans in
      let self_s name =
        match Hashtbl.find_opt self name with Some (_, t) -> t /. n | None -> 0.
      in
      let c name = Option.value ~default:0. (Hashtbl.find_opt Flows.counts name) in
      let per_pass name = c name /. n in
      let ratio a b = if b = 0. then 0. else a /. b in
      (* traced and untraced passes must reach the same verdicts and the
         same final programs *)
      let first_untraced = Hashtbl.create 64 in
      List.iter
        (fun r -> Hashtbl.replace first_untraced r.req.Flows.label (r.verdict, r.final))
        (List.concat untraced);
      let disagree =
        List.filter
          (fun r -> Hashtbl.find_opt first_untraced r.req.Flows.label <> Some (r.verdict, r.final))
          (List.concat traced)
      in
      let all = warm @ List.concat untraced @ List.concat traced in
      let failed =
        List.length (List.filter (fun r -> wrong r || List.memq r disagree) all)
      in
      let wall passes =
        median (List.map (List.fold_left (fun s r -> s +. r.latency) 0.) passes)
      in
      let request_wall = wall traced in
      let explore_s = self_s "exec.explore" in
      let metrics =
        [
          ("lang.parse_s", "s", self_s "lang.parse");
          ("lang.denote_s", "s", self_s "lang.denote");
          ("lang.denote_traces", "count", per_pass "lang.denote_traces");
          ("analysis.refine_s", "s", self_s "analysis.refine");
          ("analysis.refine_unknown", "count", per_pass "analysis.refine_unknown");
          ("analysis.lockset_s", "s", self_s "analysis.lockset");
          ( "analysis.lockset_certified_ratio", "ratio",
            ratio (c "analysis.lockset_certified") (c "analysis.lockset_calls") );
          ("opt.rewrite_s", "s", self_s "opt.rewrite");
          ("opt.rewrite_sites", "count", per_pass "opt.rewrite_sites");
          ("opt.validations", "count", per_pass "opt.validations");
          ("opt.ladder.static_hits", "count", per_pass "opt.ladder.static_hits");
          ("opt.ladder.refine_hits", "count", per_pass "opt.ladder.refine_hits");
          ("opt.ladder.refine_misses", "count", per_pass "opt.ladder.refine_misses");
          ("opt.ladder.exhaustive_runs", "count", per_pass "opt.ladder.exhaustive_runs");
          ( "opt.ladder.refine_hit_ratio", "ratio",
            ratio (c "opt.ladder.refine_hits")
              (c "opt.ladder.refine_hits" +. c "opt.ladder.refine_misses") );
          ("exec.explore_s", "s", explore_s);
          ("exec.states", "count", per_pass "exec.states");
          ("exec.states_per_s", "1/s", ratio (per_pass "exec.states") explore_s);
          ("exec.memo_hits", "count", per_pass "exec.memo_hits");
          ("exec.por_cuts", "count", per_pass "exec.por_cuts");
          ("exec.peak_frontier", "count", c "exec.peak_frontier");
          ("exec.budget_exceeded", "count", per_pass "exec.budget_exceeded");
          ("exec.steals", "count", per_pass "exec.steals");
          ("exec.lock_waits", "count", per_pass "exec.lock_waits");
          ("model.explore_s", "s", self_s "model.explore");
          ("model.states", "count", per_pass "model.states");
          ("litmus.replay_s", "s", self_s "litmus.replay");
          ("obs.trace_overhead_ratio", "ratio", ratio request_wall (wall untraced));
        ]
      in
      detail
        [
          ("host", host_fingerprint ());
          ("untraced_passes", Json.Int (List.length untraced));
          ("traced_passes", Json.Int (List.length traced));
          ("traced_pass_request_s", Json.Float request_wall);
          ( "refine_share",
            Json.Float
              (ratio (self_s "analysis.refine") request_wall) );
          ("trace_disagreements", Json.Int (List.length disagree));
          ("failures", Json.List (failures all));
        ];
      result_line ~correct:(failed = 0) ~attempted:(List.length all) ~failed metrics;
      if failed = 0 then 0 else 1
    end
  in
  teardown ();
  exit exit_code
