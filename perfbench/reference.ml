(* Reference answers, owned by the benchmark.  Nothing here is computed
   by the code under test: the entries are the paper's claims and the
   hand-written expectations the project documents (the corpus's
   drf/can/cannot annotations, the portability table of the CLI's cram
   test), written out again so that a change to the program cannot move
   its own yardstick. *)

(* Every corpus program, by name.  The default pipeline is made of safe
   passes only (Theorems 1-4), so it must accept each of them. *)
let corpus_names =
  [
    "intro_racy"; "intro_racy_opt"; "intro_volatile"; "fig1_original";
    "fig1_transformed"; "fig2_original"; "fig2_transformed"; "fig3_a";
    "fig3_b"; "fig3_c"; "oota"; "sec4_elim_original";
    "sec4_elim_transformed"; "sec5_unelim"; "sb"; "mp"; "mp_volatile";
    "mp_locked"; "lb"; "corr"; "iriw"; "dekker_volatile"; "wrc";
    "sb_volatile"; "peterson_once"; "co_ww_rr"; "atomic_faa_counter";
    "atomic_ticket_lock"; "atomic_treiber"; "atomic_sense_barrier";
    "atomic_spin_then_block"; "atomic_sb_xchg";
  ]

let optimize_accepts = corpus_names

(* The corpus tests whose SC-forbidden behaviour a weak model makes
   observable.  TSO's store buffer relaxes only store->load order; PSO
   also relaxes store->store order, which breaks message passing through
   plain flags. *)
let relaxed = function
  | "sc" -> []
  | "tso" -> [ "sb" ]
  | "pso" -> [ "sb"; "mp"; "intro_racy"; "fig1_original" ]
  | m -> invalid_arg ("unknown model " ^ m)

(* The pass x model portability matrix over the whole registry and
   corpus: "inert" (the pass rewrites no corpus program), "safe", or
   "unsafe:<first corpus test with a replayed counterexample>". *)
let portability =
  [
    ("constprop", ("inert", "inert", "inert"));
    ("copyprop", ("safe", "safe", "safe"));
    ("redundancy", ("safe", "safe", "safe"));
    ("dead-moves", ("inert", "inert", "inert"));
    ("dead-loads", ("safe", "safe", "safe"));
    ("dead-stores", ("safe", "unsafe:fig1_original", "safe"));
    ("fold-branches", ("inert", "inert", "inert"));
    ("normalise", ("inert", "inert", "inert"));
    ("unroll1", ("safe", "safe", "safe"));
    ("unroll2", ("safe", "safe", "safe"));
    ("roach-motel", ("safe", "safe", "safe"));
    ("store-load-reorder",
     ("safe", "unsafe:fig2_original", "unsafe:fig2_original"));
    ("cross-acquire-elim", ("safe", "unsafe:fig3_b", "unsafe:fig3_b"));
    ("read-intro", ("unsafe:fig3_a", "safe", "safe"));
    ("unsafe-store-release", ("unsafe:mp_locked", "safe", "safe"));
  ]

let portability_cell ~pass ~model =
  match List.assoc_opt pass portability with
  | None -> None
  | Some (sc, tso, pso) -> (
      match model with
      | "sc" -> Some sc
      | "tso" -> Some tso
      | "pso" -> Some pso
      | _ -> None)
