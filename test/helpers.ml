(* Shared test vocabulary: action shorthands, testables, and common
   fixtures. *)

open Safeopt_trace

(* Action shorthands in paper notation. *)
let r l v = Action.Read (l, v)
let w l v = Action.Write (l, v)
let lk m = Action.Lock m
let ul m = Action.Unlock m
let ext v = Action.External v
let st t = Action.Start t

(* Wildcard shorthands. *)
let c a = Wildcard.Concrete a
let wild l = Wildcard.Wild_read l

let none = Location.Volatile.none
let vol_v = Location.Volatile.of_list [ "v" ]

(* Alcotest testables. *)
let action = Alcotest.testable Action.pp Action.equal
let trace = Alcotest.testable Trace.pp Trace.equal
let wildcard = Alcotest.testable Wildcard.pp Wildcard.equal

let traceset =
  Alcotest.testable Traceset.pp Traceset.equal

let behaviour =
  Alcotest.testable Safeopt_exec.Behaviour.pp Safeopt_exec.Behaviour.equal

let behaviour_set =
  Alcotest.testable Safeopt_exec.Behaviour.Set.pp
    Safeopt_exec.Behaviour.Set.equal

let interleaving =
  Alcotest.testable Safeopt_exec.Interleaving.pp
    Safeopt_exec.Interleaving.equal

let program =
  Alcotest.testable Safeopt_lang.Pp.program Safeopt_lang.Ast.equal_program

(* Interleaving builder: [(tid, action); ...]. *)
let il pairs =
  List.map (fun (t, a) -> Safeopt_exec.Interleaving.pair t a) pairs

let parse = Safeopt_lang.Parser.parse_program

let behaviours_of_list l =
  List.fold_left
    (fun acc b -> Safeopt_exec.Behaviour.Set.add b acc)
    Safeopt_exec.Behaviour.Set.empty l

(* The Fig. 2 tracesets from section 4, explicit over {0,1}. *)
let fig2_original_traceset =
  Traceset.of_list
    (List.concat_map
       (fun v ->
         [ [ st 0; r "x" v; w "y" v ]; [ st 1; r "y" v; w "x" 1; ext v ] ])
       [ 0; 1 ])

let fig2_transformed_traceset =
  Traceset.of_list
    (List.concat_map
       (fun v ->
         [ [ st 0; r "x" v; w "y" v ]; [ st 1; w "x" 1; r "y" v; ext v ] ])
       [ 0; 1 ])

(* Substring search for output checks. *)
let contains_substring s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

(* The unreduced SC engine: [Explorer] over the program's thread system
   without [~local].  [Interp] always explores under the partial-order
   reduction, so every reduced ≡ full check compares against these. *)
let full_behaviours ?fuel ?max_states ?stats ?pool p =
  Safeopt_exec.Explorer.behaviours ?max_states ?stats ?pool
    (Safeopt_lang.Thread_system.make ?fuel p)

let full_count_states ?fuel ?max_states ?stats ?pool p =
  Safeopt_exec.Explorer.count_states ?max_states ?stats ?pool
    (Safeopt_lang.Thread_system.make ?fuel p)

let full_find_race ?fuel ?max_states ?stats ?pool p =
  Safeopt_exec.Explorer.find_adjacent_race ?max_states ?stats ?pool
    p.Safeopt_lang.Ast.volatile
    (Safeopt_lang.Thread_system.make ?fuel p)

(* The work-stealing engine, unconditionally ({!Explorer.Parallel}).  A
   pooled [Interp] or [Explorer] call on a small program is decided by
   the sequential engine, so every jobs N ≡ jobs 1 parity check runs on
   these: [par_*] under the reduction, as [Interp] explores, and
   [par_full_*] without it, as the [full_*] helpers above. *)
let par_behaviours ?max_states ?stats ~pool p =
  Safeopt_exec.Explorer.Parallel.behaviours ?max_states ?stats
    ~local:(Safeopt_lang.Thread_system.local_actions p)
    ~pool
    (Safeopt_lang.Thread_system.make p)

let par_count_states ?max_states ?stats ~pool p =
  Safeopt_exec.Explorer.Parallel.count_states ?max_states ?stats
    ~local:(Safeopt_lang.Thread_system.local_actions p)
    ~pool
    (Safeopt_lang.Thread_system.make p)

let par_find_race ?max_states ?stats ~pool p =
  Safeopt_exec.Explorer.Parallel.find_adjacent_race ?max_states ?stats
    ~local:(Safeopt_lang.Thread_system.local_actions p)
    ~pool p.Safeopt_lang.Ast.volatile
    (Safeopt_lang.Thread_system.make p)

let par_full_behaviours ?stats ~pool p =
  Safeopt_exec.Explorer.Parallel.behaviours ?stats ~pool
    (Safeopt_lang.Thread_system.make p)

let par_full_count_states ?stats ~pool p =
  Safeopt_exec.Explorer.Parallel.count_states ?stats ~pool
    (Safeopt_lang.Thread_system.make p)

let par_full_find_race ~pool p =
  Safeopt_exec.Explorer.Parallel.find_adjacent_race ~pool
    p.Safeopt_lang.Ast.volatile
    (Safeopt_lang.Thread_system.make p)
