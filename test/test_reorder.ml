open Safeopt_trace
open Safeopt_core
open Helpers

let check_b = Alcotest.(check bool)

(* The paper's Fig. 4 trace and function:
   t' = [S(0); W[x=1]; R[y=1]; X(1)], f = {0->0, 1->2, 2->1, 3->3}. *)
let t' = [ st 1; w "x" 1; r "y" 1; ext 1 ]
let f : Reorder.f = [| 0; 2; 1; 3 |]

(* T-bar: fig2's original traceset extended with [S(1); W[x=1]] (the
   section-4 elimination step). *)
let t_bar = Traceset.add [ st 1; w "x" 1 ] fig2_original_traceset

let test_permutations () =
  check_b "valid permutation" true (Reorder.is_permutation f);
  check_b "identity" true (Reorder.is_permutation (Reorder.identity 4));
  check_b "not injective" false (Reorder.is_permutation [| 0; 0; 1; 2 |]);
  check_b "out of range" false (Reorder.is_permutation [| 0; 1; 2; 4 |])

let test_reordering_function () =
  check_b "paper's f is a reordering function" true
    (Reorder.is_reordering_function none t' f);
  (* Swapping the external with the read would invert X and R with
     X(1) earlier: that is allowed (Ext row, R column is reorderable);
     swapping two conflicting accesses is not. *)
  let conflict = [ st 0; w "x" 1; r "x" 1 ] in
  check_b "conflicting swap rejected" false
    (Reorder.is_reordering_function none conflict [| 0; 2; 1 |]);
  check_b "identity always ok" true
    (Reorder.is_reordering_function none conflict (Reorder.identity 3))

let test_depermute_fig4 () =
  (* n = 4: the original trace (read before write) *)
  Alcotest.check trace "n=4"
    [ st 1; r "y" 1; w "x" 1; ext 1 ]
    (Reorder.depermute f t');
  (* n = 3 *)
  Alcotest.check trace "n=3"
    [ st 1; r "y" 1; w "x" 1 ]
    (Reorder.depermute_prefix f t' 3);
  (* n = 2: the elimination-closure trace [S; W[x=1]] *)
  Alcotest.check trace "n=2" [ st 1; w "x" 1 ] (Reorder.depermute_prefix f t' 2);
  Alcotest.check trace "n=1" [ st 1 ] (Reorder.depermute_prefix f t' 1);
  Alcotest.check trace "n=0" [] (Reorder.depermute_prefix f t' 0)

let test_de_permutes () =
  check_b "f de-permutes t' into T-bar" true
    (Reorder.de_permutes none f t' ~mem:(fun t -> Traceset.mem t t_bar));
  (* without the added trace the n=2 de-permutation fails *)
  check_b "fails against T alone" false
    (Reorder.de_permutes none f t' ~mem:(fun t ->
         Traceset.mem t fig2_original_traceset))

let test_find () =
  (match Reorder.find none t' ~mem:(fun t -> Traceset.mem t t_bar) with
  | Some g ->
      check_b "found function de-permutes" true
        (Reorder.de_permutes none g t' ~mem:(fun t -> Traceset.mem t t_bar))
  | None -> Alcotest.fail "expected a de-permuting function");
  Alcotest.(check bool) "no function against T alone" true
    (Reorder.find none t' ~mem:(fun t -> Traceset.mem t fig2_original_traceset)
    = None)

(* The search tries the identity position first, so a trace that is
   already in the target set is found with one positive query per
   prefix and no negative query at all. *)
let test_find_identity_first () =
  let thread_ts =
    let p = parse "thread { r1 := x; y := 1; r2 := z; print r2; x := r1; }" in
    fst
      (Safeopt_lang.Denote.thread_traces ~universe:[ 0; 1 ] ~max_len:8 ~tid:0
         (List.hd p.Safeopt_lang.Ast.threads))
  in
  List.iter
    (fun target ->
      List.iter
        (fun t ->
          let positive = ref 0 and negative = ref 0 in
          let mem u =
            let b = Traceset.mem u target in
            incr (if b then positive else negative);
            b
          in
          let name = Fmt.str "%a" Trace.pp t in
          check_b (name ^ " found") true
            (Option.is_some (Reorder.find none t ~mem));
          Alcotest.(check int) (name ^ ": no negative query") 0 !negative;
          Alcotest.(check int)
            (name ^ ": one query per prefix")
            (Trace.length t + 1) !positive)
        (Traceset.to_list target))
    [ fig2_original_traceset; t_bar; thread_ts ]

let test_is_reordering () =
  (* The paper: T' is NOT a reordering of T directly... *)
  check_b "not a reordering of T" false
    (Reorder.is_reordering none ~original:fig2_original_traceset
       ~transformed:fig2_transformed_traceset);
  (* ...but is a reordering of T-bar. *)
  check_b "reordering of T-bar" true
    (Reorder.is_reordering none ~original:t_bar
       ~transformed:fig2_transformed_traceset);
  (* and via the elimination-closure oracle, without materialising
     T-bar. *)
  check_b "reordering of elimination closure" true
    (Reorder.is_reordering_of_oracle none
       ~mem:(fun t ->
         Elimination.is_member none ~original:fig2_original_traceset
           ~universe:[ 0; 1 ] t)
       ~transformed:fig2_transformed_traceset);
  (* identity reordering *)
  check_b "T reorders to itself" true
    (Reorder.is_reordering none ~original:fig2_original_traceset
       ~transformed:fig2_original_traceset)

let test_volatile_blocks () =
  (* Reordering a volatile read with a later write is forbidden even
     modulo elimination; with a non-volatile location the same swap is
     a reordering of the elimination closure (the closure supplies the
     prefix de-permutations, exactly as in Fig. 2). *)
  (* the original traceset is receptive: it reads either value, as a
     real program's denotation would *)
  let orig =
    Traceset.of_list
      [ [ st 0; r "v" 0; w "x" 1 ]; [ st 0; r "v" 1; w "x" 1 ] ]
  in
  let trans = Traceset.of_list [ [ st 0; w "x" 1; r "v" 0 ] ] in
  let closure vol t =
    Elimination.is_member vol ~original:orig ~universe:[ 0; 1 ] t
  in
  check_b "acquire blocks reordering" false
    (Reorder.is_reordering_of_oracle vol_v ~mem:(closure vol_v)
       ~transformed:trans);
  check_b "fine when not volatile (via closure)" true
    (Reorder.is_reordering_of_oracle none ~mem:(closure none)
       ~transformed:trans);
  (* pure reordering without elimination fails on the prefix
     de-permutations even in the non-volatile case — this is why
     Lemma 5 composes the two transformations *)
  check_b "pure reordering lacks the prefixes" false
    (Reorder.is_reordering none ~original:orig ~transformed:trans)

let test_matrix () =
  let m = Reorder.matrix ~same_location:false in
  (* spot check against the paper's table *)
  check_b "W-W distinct" true m.(0).(0);
  check_b "W-Acq" true m.(0).(2);
  check_b "W-Rel" false m.(0).(3);
  check_b "Acq row all blocked" true (Array.for_all not m.(2));
  check_b "Rel-W" true m.(3).(0);
  check_b "Ext-Ext" false m.(4).(4);
  let ms = Reorder.matrix ~same_location:true in
  check_b "W-W same location" false ms.(0).(0);
  check_b "R-R same location" true ms.(1).(1);
  (* the rendered table mentions both variants *)
  let rendered = Fmt.str "%a" Reorder.pp_matrix () in
  check_b "render mentions both tables" true
    (contains_substring rendered "distinct locations"
    && contains_substring rendered "same location")

let () =
  Alcotest.run "reorder"
    [
      ( "reorder",
        [
          Alcotest.test_case "permutations" `Quick test_permutations;
          Alcotest.test_case "reordering functions" `Quick
            test_reordering_function;
          Alcotest.test_case "Fig. 4 de-permutations" `Quick
            test_depermute_fig4;
          Alcotest.test_case "de_permutes" `Quick test_de_permutes;
          Alcotest.test_case "search" `Quick test_find;
          Alcotest.test_case "search tries the identity first" `Quick
            test_find_identity_first;
          Alcotest.test_case "traceset reordering" `Quick test_is_reordering;
          Alcotest.test_case "volatility blocks" `Quick test_volatile_blocks;
          Alcotest.test_case "matrix" `Quick test_matrix;
        ] );
    ]
