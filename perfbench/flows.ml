(* The four user flows, each as a list of closed-loop requests.

   A request has two implementations that must reach the same verdict:

   - [untraced] calls the program's highest-level public function for
     the flow ([Pipeline.run], [Litmus.check], [Portability.sweep]), as
     a user of the library would;
   - [traced] drives the same public functions step by step, so that
     every call into a layer sits in its own span: the pipeline's
     rewrites and the validation ladder's rungs, the DRF legs and the
     behaviour enumerations of the exhaustive rung, witness replay.
     It records layer counters along the way.

   The refine rung's denotations are computed inside [Refine.check], so
   [lang.denote] is measured by a probe that runs after the request:
   [Denote.thread_traces] on each thread the rung enumerated, with the
   bounds [Refine.check] documents.  Probe spans are roots of their own
   and are not part of any request's time. *)

module Ast = Safeopt_lang.Ast
module Parser = Safeopt_lang.Parser
module Pp = Safeopt_lang.Pp
module Interp = Safeopt_lang.Interp
module Denote = Safeopt_lang.Denote
module Traceset = Safeopt_trace.Traceset
module Explorer = Safeopt_exec.Explorer
module Behaviour = Safeopt_exec.Behaviour
module Model = Safeopt_model.Memory_model
module Pass = Safeopt_opt.Pass
module Pipeline = Safeopt_opt.Pipeline
module Validate = Safeopt_opt.Validate
module Refine = Safeopt_analysis.Refine
module Static_race = Safeopt_analysis.Static_race
module Litmus = Safeopt_litmus.Litmus
module Corpus = Safeopt_litmus.Corpus
module Portability = Safeopt_litmus.Portability
module Ev = Safeopt_obs.Event

type request = {
  label : string;
  expected : string;  (** the reference verdict *)
  untraced : unit -> string * string;  (** verdict, final state *)
  traced : unit -> string * string;
}

(* --- layer counters of the traced run -------------------------------- *)

let counts : (string, float) Hashtbl.t = Hashtbl.create 64

let count name v =
  Hashtbl.replace counts name
    (v +. Option.value ~default:0. (Hashtbl.find_opt counts name))

let count_max name v =
  Hashtbl.replace counts name
    (Float.max v (Option.value ~default:0. (Hashtbl.find_opt counts name)))

let incr name = count name 1.

(* Refine checks of the current request, probed after it completes. *)
let pending_probes : (Ast.program * Ast.program * Refine.t) list ref = ref []

(* --- traced calls into the layers ------------------------------------ *)

let parse src = Spans.record "lang.parse" (fun () -> Parser.parse_program src)

(* One exploration with a private stats sink, attributed to the exec
   layer (SC interleavings) or the model layer (store-buffer machines). *)
let explore ~model f =
  let stats = Explorer.create_stats () in
  let weak = not (Model.equal model Model.Sc) in
  let publish () =
    let f = float_of_int in
    if weak then count "model.states" (f stats.Explorer.states)
    else begin
      count "exec.states" (f stats.Explorer.states);
      count "exec.memo_hits" (f stats.Explorer.memo_hits);
      count "exec.por_cuts" (f stats.Explorer.por_cuts);
      count_max "exec.peak_frontier" (f stats.Explorer.peak_frontier);
      count "exec.steals" (f stats.Explorer.steals);
      count "exec.lock_waits" (f stats.Explorer.lock_waits)
    end
  in
  Spans.record
    (if weak then "model.explore" else "exec.explore")
    ~attrs:[ ("model", Ev.Str (Model.name model)) ]
    (fun () ->
      match f stats with
      | r ->
          publish ();
          r
      | exception (Explorer.Too_many_states _ as e) ->
          incr "exec.budget_exceeded";
          publish ();
          raise e)

let behaviours ?pool ?max_states model p =
  explore ~model (fun stats ->
      Model.behaviours ?max_states ?pool ~stats model p)

let is_drf ?pool ?max_states p =
  explore ~model:Model.Sc (fun stats ->
      Interp.is_drf ?max_states ?pool ~stats p)

let find_race ?pool ?max_states p =
  explore ~model:Model.Sc (fun stats ->
      Interp.find_race ?max_states ?pool ~stats p)

let lockset p =
  let ok =
    Spans.record "analysis.lockset" (fun () -> Static_race.certified_drf p)
  in
  incr "analysis.lockset_calls";
  if ok then incr "analysis.lockset_certified";
  ok

let refine ~original ~transformed =
  let r = Spans.record "analysis.refine" (fun () ->
      Refine.check ~original ~transformed ())
  in
  (match Refine.verdict r with
  | Refine.Unknown _ -> incr "analysis.refine_unknown"
  | Refine.Safe | Refine.Counterexample _ -> ());
  pending_probes := (original, transformed, r) :: !pending_probes;
  r

let replay model p b =
  Spans.record "litmus.replay" (fun () -> Model.replays model p b)

(* [Validate.validate], one public call at a time: both behaviour sets
   under the model, then the two SC DRF legs with their static
   lockset fast path. *)
let exhaustive ?max_states ~model ~original ~transformed () =
  let b_orig = behaviours ?max_states model original in
  let b_trans = behaviours ?max_states model transformed in
  let new_behaviour = Safeopt_core.Safety.behaviour_subset b_trans b_orig in
  let original_drf = lockset original || is_drf ?max_states original in
  let race_witness =
    if lockset transformed then None else find_race ?max_states transformed
  in
  {
    Validate.model;
    original_drf;
    transformed_drf = Option.is_none race_witness;
    new_behaviour;
    race_witness;
    relation = Validate.Unchecked;
    relation_holds = None;
    relation_counterexample = None;
  }

(* The [Auto] ladder of [Validate.run_validator], rung by rung. *)
let ladder ?max_states ~model ~original ~transformed () =
  Spans.record "opt.validate" (fun () ->
      incr "opt.validations";
      let outcome out_method out_ok out_refine out_report =
        {
          Validate.out_validator = Validate.Auto;
          out_method;
          out_ok;
          out_refine;
          out_report;
          out_note = None;
        }
      in
      let escalate ?refined () =
        incr "opt.ladder.exhaustive_runs";
        let r = exhaustive ?max_states ~model ~original ~transformed () in
        outcome Validate.Enumerated (Validate.ok r) refined (Some r)
      in
      let refine_rung () =
        let r = refine ~original ~transformed in
        match Refine.verdict r with
        | Refine.Safe ->
            incr "opt.ladder.refine_hits";
            outcome Validate.Refined true (Some r) None
        | Refine.Counterexample _ | Refine.Unknown _ ->
            incr "opt.ladder.refine_misses";
            escalate ~refined:r ()
      in
      if Ast.equal_program original transformed then begin
        incr "opt.ladder.static_hits";
        outcome Validate.Equal_programs true None None
      end
      else if Model.equal model Model.Sc then refine_rung ()
      else if lockset original && lockset transformed then refine_rung ()
      else escalate ())

(* One pipeline step's rewrite, iterated to a fixpoint for [*] steps as
   [Pipeline.run] does. *)
let rewrite ?(fixpoint = false) (pass : Pass.t) p =
  Spans.record "opt.rewrite" (fun () ->
      let rec go p iters =
        let r = pass.Pass.run p in
        count "opt.rewrite_sites" (float_of_int (List.length r.Pass.sites));
        if fixpoint && iters < 16 && not (Ast.equal_program r.Pass.program p)
        then go r.Pass.program (iters + 1)
        else r.Pass.program
      in
      go p 1)

let denote_probe (original, transformed, (r : Refine.t)) =
  let universe = Denote.joint_universe [ original; transformed ] in
  let threads = List.combine original.Ast.threads transformed.Ast.threads in
  List.iter
    (fun (tid, v) ->
      match v with
      | Refine.Refines _ | Refine.Fails _ ->
          let torig, ttrans = List.nth threads tid in
          let enumerate max_len thread =
            let ts, _ =
              Spans.record "lang.denote" (fun () ->
                  Denote.thread_traces ~max_traces:50_000 ~universe ~max_len
                    ~tid thread)
            in
            count "lang.denote_traces" (float_of_int (Traceset.cardinal ts))
          in
          enumerate r.Refine.max_len ttrans;
          enumerate (r.Refine.max_len + Ast.thread_size torig + 1) torig
      | Refine.Identical | Refine.Bounded _ -> ())
    r.Refine.threads

let run_probes () =
  let probes = List.rev !pending_probes in
  pending_probes := [];
  if probes <> [] then
    Spans.record "probe.denote" (fun () -> List.iter denote_probe probes)

(* --- verdicts --------------------------------------------------------- *)

let pipeline_verdict (steps : Pipeline.pass_stats list) =
  let outcomes = List.filter_map (fun ps -> ps.Pipeline.ps_validation) steps in
  if List.exists (fun o -> Validate.method_tag o = "inconclusive") outcomes
  then "undecided"
  else if List.for_all Validate.outcome_ok outcomes then "accepted"
  else "rejected"

(* The traced pipeline: [Pipeline.run]'s sequential path.  An unchanged
   step is never validated; the first failing validation stops the
   pipeline at that step's input. *)
let traced_pipeline ?max_states (spec : Pipeline.spec) p =
  let rec go p = function
    | [] -> (p, "accepted")
    | (step : Pipeline.step) :: rest ->
        let p' = rewrite ~fixpoint:step.Pipeline.fixpoint step.Pipeline.pass p in
        if Ast.equal_program p' p then go p' rest
        else
          let o =
            ladder ?max_states ~model:Model.Sc ~original:p ~transformed:p' ()
          in
          if Validate.outcome_ok o then go p' rest else (p, "rejected")
  in
  go p spec

let default_spec =
  match Pipeline.parse "constprop;copyprop;cse*;dead-moves;dse;normalise" with
  | Ok s -> s
  | Error e -> failwith e

(* --- optimize-corpus --------------------------------------------------- *)

let optimize_corpus () =
  let spec = default_spec in
  List.map
    (fun (t : Litmus.t) ->
      let p = parse t.Litmus.source in
      {
        label = t.Litmus.name;
        expected =
          (if List.mem t.Litmus.name Reference.optimize_accepts then "accepted"
           else "rejected");
        untraced =
          (fun () ->
            let o =
              Pipeline.run ~validate_each:true ~validator:Validate.Auto
                ~model:Model.Sc spec p
            in
            (pipeline_verdict o.Pipeline.steps, Pp.program_to_string o.Pipeline.final));
        traced =
          (fun () ->
            let final, v = traced_pipeline spec p in
            (v, Pp.program_to_string final));
      })
    Corpus.all

(* --- litmus-models ----------------------------------------------------- *)

(* The SC expectations of a corpus test against what a model shows:
   "sc" when they all hold, "relaxed" when the DRF verdict and every
   [can] behaviour hold but an SC-forbidden behaviour is observable. *)
let litmus_verdict (t : Litmus.t) ~drf ~behaviours =
  if drf <> t.Litmus.drf then "drf-mismatch"
  else if
    not (List.for_all (fun b -> Behaviour.Set.mem b behaviours) t.Litmus.can)
  then "can-missing"
  else if List.exists (fun b -> Behaviour.Set.mem b behaviours) t.Litmus.cannot
  then "relaxed"
  else "sc"

let behaviours_key bs =
  String.concat " " (List.map Behaviour.to_string (Behaviour.Set.elements bs))

let litmus_models () =
  List.concat_map
    (fun model ->
      List.map
        (fun (t : Litmus.t) ->
          let relaxed = List.mem t.Litmus.name (Reference.relaxed (Model.name model)) in
          {
            label = t.Litmus.name ^ "@" ^ Model.name model;
            expected = (if relaxed then "relaxed" else "sc");
            untraced =
              (fun () ->
                let o = Litmus.check ~model t in
                let v =
                  litmus_verdict t ~drf:o.Litmus.drf_actual
                    ~behaviours:o.Litmus.behaviours
                in
                (* Litmus.check's own failure list must agree *)
                let v =
                  if (o.Litmus.failures = []) = (v = "sc") then v
                  else "inconsistent:" ^ v
                in
                (v, behaviours_key o.Litmus.behaviours));
            traced =
              (fun () ->
                let p = parse t.Litmus.source in
                let drf = is_drf p in
                let bs = behaviours model p in
                (litmus_verdict t ~drf ~behaviours:bs, behaviours_key bs));
          })
        Corpus.all)
    Model.all

(* --- portability-matrix ----------------------------------------------- *)

let cell_verdict = function
  | Portability.Safe -> "safe"
  | Portability.Inert -> "inert"
  | Portability.Unsafe e ->
      (* a behaviour counterexample must replay; a race has no replay *)
      (if e.Portability.u_behaviour <> None && not e.Portability.u_replayed
       then "unsafe-unreplayed:"
       else "unsafe:")
      ^ e.Portability.u_test

(* [Portability.check_cell] step by step: rewrite every corpus program
   once, validate the changed ones under the model, stop at the first
   failure and replay its witness behaviour. *)
let traced_cell (pass : Pass.t) model =
  let programs =
    List.map (fun (t : Litmus.t) -> (t.Litmus.name, parse t.Litmus.source)) Corpus.all
  in
  let changed =
    List.filter_map
      (fun (name, p) ->
        let p' = rewrite pass p in
        if Ast.equal_program p' p then None else Some (name, p, p'))
      programs
  in
  let rec go = function
    | [] -> if changed = [] then "inert" else "safe"
    | (name, p, p') :: rest -> (
        let o = ladder ~model ~original:p ~transformed:p' () in
        if Validate.outcome_ok o then go rest
        else
          match Validate.outcome_witness ~original:p ~transformed:p' o with
          | None -> go rest
          | Some w ->
              let replayed =
                match w.Safeopt_core.Witness.evidence with
                | Safeopt_core.Witness.New_behaviour b ->
                    replay model p' b && not (replay model p b)
                | _ -> true
              in
              (if replayed then "unsafe:" else "unsafe-unreplayed:") ^ name)
  in
  let v = go changed in
  (v, Printf.sprintf "%s/%d" v (List.length changed))

let portability_matrix () =
  List.concat_map
    (fun (pass : Pass.t) ->
      List.map
        (fun model ->
          let name = Model.name model in
          {
            label = pass.Pass.name ^ "@" ^ name;
            expected =
              Option.value ~default:"missing-reference"
                (Reference.portability_cell ~pass:pass.Pass.name ~model:name);
            untraced =
              (fun () ->
                match
                  (Portability.sweep ~passes:[ pass ] ~models:[ model ] ())
                    .Portability.cells
                with
                | [ c ] ->
                    let v = cell_verdict c.Portability.c_verdict in
                    (v, Printf.sprintf "%s/%d" v c.Portability.c_checked)
                | _ -> ("no-cell", ""));
            traced = (fun () -> traced_cell pass model);
          })
        Model.all)
    Pipeline.registry

(* --- many-threads ------------------------------------------------------ *)

(* The exploration budget of every many-threads request.  The
   litmus-style checks run only on programs whose generator bound is
   far below it: the four-thread ones, at about 10^4 states. *)
let state_budget = 200_000
let check_limit = 10_000

let many_threads ~seed pool =
  let spec = default_spec in
  List.map
    (fun (g : Gen.program) ->
      let p = parse g.Gen.source in
      let checked = g.Gen.state_bound <= check_limit in
      let suffix drf bs =
        if not checked then ""
        else
          Printf.sprintf ";drf=%b;behaviours=%s" drf
            (if Gen.behaviours_match g bs then "ok" else "mismatch")
      in
      {
        label = g.Gen.name;
        expected =
          ("accepted"
          ^ if checked then Printf.sprintf ";drf=%b;behaviours=ok" g.Gen.drf else "");
        untraced =
          (fun () ->
            let o =
              Pipeline.run ~max_states:state_budget ~pool ~validate_each:true
                ~validator:Validate.Auto ~model:Model.Sc spec p
            in
            let s =
              if checked then
                suffix
                  (Validate.drf_fast ~max_states:state_budget ~pool p)
                  (Interp.behaviours ~max_states:state_budget ~pool p)
              else ""
            in
            (pipeline_verdict o.Pipeline.steps ^ s, Pp.program_to_string o.Pipeline.final));
        traced =
          (fun () ->
            let final, v = traced_pipeline ~max_states:state_budget spec p in
            let s =
              if checked then
                let drf =
                  lockset p || is_drf ~pool ~max_states:state_budget p
                in
                suffix drf (behaviours ~pool ~max_states:state_budget Model.Sc p)
              else ""
            in
            (v ^ s, Pp.program_to_string final));
      })
    (Gen.programs seed)
