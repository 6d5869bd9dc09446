(* Thread-state keys: the structural key of [Thread_system] against the
   printed key it replaced.

   [Oracle] rebuilds the thread system with the old key, which
   pretty-printed each thread's remaining code.  That key is slow but
   obviously canonical, so any exploration over the two systems must
   agree exactly: the same reachable-state counts (a key that merged
   states with different futures would shrink the count, one that split
   equal states would grow it) and the same behaviours, under SC at
   jobs 1 and 2 with POR off and on, and under the TSO and PSO
   store-buffer machines.  The jobs-2 cases run the work-stealing engine
   unconditionally ([Explorer.Parallel]), whose interning tables are
   the striped ones. *)

open Safeopt_trace
open Safeopt_lang
open Safeopt_exec
open Safeopt_gen
module G = QCheck2.Gen
module Model = Safeopt_model.Memory_model

module Oracle = struct
  type state = {
    tid : Thread_id.t;
    started : bool;
    fuel : int option;
    config : Semantics.config;
  }

  let config_key (c : Semantics.config) =
    let b = Buffer.create 64 in
    Monitor.Map.iter
      (fun m d ->
        if d <> 0 then Buffer.add_string b (Printf.sprintf "%s:%d;" m d))
      c.mons;
    Buffer.add_char b '|';
    Reg.Map.iter
      (fun r v ->
        if v <> 0 then Buffer.add_string b (Printf.sprintf "%s:%d;" r v))
      c.regs;
    Buffer.add_char b '|';
    Buffer.add_string b (Pp.thread_compact c.code);
    Buffer.contents b

  let make ?(fuel = 64) p =
    let fuel = if Thread_system.has_loop p then Some fuel else None in
    let initial =
      List.mapi
        (fun tid thread ->
          { tid; started = false; fuel; config = Semantics.initial thread })
        p.Ast.threads
    in
    let spend st = Option.map (fun f -> f - 1) st.fuel in
    let step st c = { st with config = c; fuel = spend st } in
    let steps st =
      if not st.started then
        [ System.Emit (Action.Start st.tid, { st with started = true }) ]
      else if st.fuel = Some 0 then []
      else
        match Semantics.next st.config with
        | Semantics.Done | Semantics.Diverged -> []
        | Semantics.Write (l, v, c) ->
            [ System.Emit (Action.Write (l, v), step st c) ]
        | Semantics.Read (l, k) ->
            [ System.Read (l, fun v -> Some (step st (k v))) ]
        | Semantics.Rmw (l, k) ->
            [
              System.Rmw
                ( l,
                  fun v ->
                    let w, c = k v in
                    [ (w, step st c) ] );
            ]
        | Semantics.Lock (m, c) -> [ System.Emit (Action.Lock m, step st c) ]
        | Semantics.Unlock (m, c) ->
            [ System.Emit (Action.Unlock m, step st c) ]
        | Semantics.Output (v, c) ->
            [ System.Emit (Action.External v, step st c) ]
    in
    let key st =
      Printf.sprintf "%d:%b:%s:%s" st.tid st.started
        (match st.fuel with None -> "-" | Some f -> string_of_int f)
        (config_key st.config)
    in
    { System.initial; steps; key }
end

(* --- programs with loops, nested branches and atomics ------------------ *)

let register = G.oneofl [ "r1"; "r2"; "r3" ]

(* A loop whose body may reload its own guard, so that some runs leave
   it before the fuel runs out; bodies nest a branch or a block. *)
let loop =
  let open G in
  let* r = register in
  let* k = int_range 0 2 in
  let* loc = oneofl [ "x"; "y" ] in
  let* body = list_size (int_range 0 2) Generators.stmt in
  let* reload = bool in
  let body = if reload then body @ [ Ast.Load (r, loc) ] else body in
  let* eq = bool in
  let a = Ast.Reg r and b = Ast.Nat k in
  let test = if eq then Ast.Eq (a, b) else Ast.Ne (a, b) in
  return (Ast.While (test, Ast.Block body))

let nested =
  let open G in
  let* s = Generators.stmt in
  let* l = loop in
  let* a = Generators.atomic_stmt in
  oneofl
    [
      Ast.If (Ast.Eq (Ast.Reg "r1", Ast.Nat 0), Ast.Block [ s; l ], a);
      Ast.Block [ Ast.Block [ s ]; a; Ast.Skip ];
    ]

let thread =
  let open G in
  let* base = Generators.thread in
  let* extra = list_size (int_range 0 2) (oneof [ loop; nested ]) in
  let* front = bool in
  return (if front then extra @ base else base @ extra)

let program =
  let open G in
  let* n = int_range 1 3 in
  let* threads = list_repeat n thread in
  let* vol = bool in
  return (Ast.program ~volatile:(if vol then [ "v" ] else []) threads)

(* Budgets keep the rare large case cheap; a case both systems abandon
   still compares (both [Error]), one abandoned by only one side fails. *)
let max_states = 20_000
let fuel = 3

let outcome f =
  try Ok (f ()) with Explorer.Too_many_states _ -> Error ()

let pool2 = Par.Pool.create 2

let same_behaviours a b =
  match (a, b) with
  | Ok a, Ok b -> Behaviour.Set.equal a b
  | Error (), Error () -> true
  | _ -> false

let sc_agrees p =
  let ours = Thread_system.make ~fuel p and ref_ = Oracle.make ~fuel p in
  List.for_all
    (fun (pool, por) ->
      let local =
        if por then Some (Thread_system.local_actions p) else None
      in
      let count sys () =
        match pool with
        | None -> Explorer.count_states ~max_states ?local sys
        | Some pool ->
            Explorer.Parallel.count_states ~max_states ?local ~pool sys
      in
      let beh sys () =
        match pool with
        | None -> Explorer.behaviours ~max_states ?local sys
        | Some pool ->
            Explorer.Parallel.behaviours ~max_states ?local ~pool sys
      in
      outcome (count ours) = outcome (count ref_)
      && same_behaviours (outcome (beh ours)) (outcome (beh ref_)))
    [ (None, false); (None, true); (Some pool2, false); (Some pool2, true) ]

let weak_agrees p =
  let ours = Thread_system.make ~fuel p and ref_ = Oracle.make ~fuel p in
  let vol = p.Ast.volatile in
  List.for_all
    (fun (m, pool) ->
      let buffer = Option.get (Model.buffer m) in
      let beh sys () =
        match pool with
        | None -> Explorer.machine_behaviours ~max_states buffer vol sys
        | Some pool ->
            Explorer.Parallel.machine_behaviours ~max_states ~pool buffer vol
              sys
      in
      same_behaviours (outcome (beh ours)) (outcome (beh ref_)))
    [
      (Model.Tso, None);
      (Model.Pso, None);
      (Model.Tso, Some pool2);
      (Model.Pso, Some pool2);
    ]

(* A fixed case of the property: a loop that returns to its head, where
   the unrolled continuation must get the head's key again. *)
let test_loop_head_shared () =
  let p =
    Parser.parse_program
      "thread { r1 := 0; while (r1 == 0) { r1 := x; } print r1; }\n\
       thread { x := 1; }"
  in
  let ours = Explorer.count_states (Thread_system.make ~fuel:6 p) in
  let ref_ = Explorer.count_states (Oracle.make ~fuel:6 p) in
  Alcotest.(check int) "same state count as the printed key" ref_ ours

let qtest name count prop =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name ~count ~print:Generators.print_program program
       prop)

let () =
  Alcotest.run "keys"
    [
      ( "thread keys",
        [
          Alcotest.test_case "loop head shared" `Quick test_loop_head_shared;
          qtest "SC counts and behaviours = printed key (jobs 1/2, POR)" 150
            sc_agrees;
          qtest "TSO/PSO behaviours = printed key" 100 weak_agrees;
        ] );
    ]
