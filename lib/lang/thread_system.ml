open Safeopt_trace
module System = Safeopt_exec.System

(* ------------------------------------------------------------------ *)
(* Code continuations, numbered once per program                       *)
(* ------------------------------------------------------------------ *)

(* Statement nodes are shared between the program and every
   continuation built from it, so the physical test settles most
   comparisons without descending into the statement. *)
module Code_tbl = Hashtbl.Make (struct
  type t = Ast.stmt list

  let equal a b =
    a == b || List.equal (fun s s' -> s == s' || Ast.equal_stmt s s') a b

  let hash = Ast.hash_thread
end)

type codes = int Code_tbl.t

(* Every continuation [Semantics.next] can reach from a thread's code,
   following its silent steps syntactically: flattened blocks, both
   arms of an [if], a [while]'s unrolling and its exit, and the tail
   after every other statement.  The set is finite because each
   continuation is a sequence of sub-statements of the program under a
   bounded nesting.  Ids follow discovery order; only equality of ids
   matters.  The table is never written after [codes] returns, so
   concurrent lookups from pool domains are safe. *)
let codes p =
  let tbl = Code_tbl.create 64 in
  let rec visit k =
    if not (Code_tbl.mem tbl k) then begin
      Code_tbl.add tbl k (Code_tbl.length tbl);
      match k with
      | [] -> ()
      | Ast.Block l :: rest -> visit (l @ rest)
      | Ast.If (_, s1, s2) :: rest ->
          visit (s1 :: rest);
          visit (s2 :: rest)
      | (Ast.While (_, body) as w) :: rest ->
          visit (body :: w :: rest);
          visit rest
      | ( Ast.Store _ | Ast.Load _ | Ast.Move _ | Ast.Lock _ | Ast.Unlock _
        | Ast.Skip | Ast.Print _ | Ast.Atomic _ )
        :: rest ->
          visit rest
    end
  in
  List.iter visit p.Ast.threads;
  tbl

let code_id codes code =
  match Code_tbl.find_opt codes code with
  | Some id -> id
  | None -> invalid_arg "Thread_system: continuation outside the program"

(* Decimal digits by hand: the key is built on every explored edge, so
   it avoids the format interpreters behind [Printf] and [Fmt].
   Negative values (rare: only a register can hold one) take the
   library path. *)
let rec add_nat b n =
  if n >= 10 then add_nat b (n / 10);
  Buffer.add_char b (Char.unsafe_chr (48 + (n mod 10)))

let add_int b n =
  if n >= 0 then add_nat b n else Buffer.add_string b (string_of_int n)

(* Monitor and register names are identifiers, so they contain neither
   ':' nor ';' and the encoding is injective.  Zero entries are dropped
   because they are indistinguishable from absent ones. *)
let add_config codes b (c : Semantics.config) =
  add_int b (code_id codes c.code);
  Buffer.add_char b '|';
  Monitor.Map.iter
    (fun m d ->
      if d <> 0 then begin
        Buffer.add_string b m;
        Buffer.add_char b ':';
        add_int b d;
        Buffer.add_char b ';'
      end)
    c.mons;
  Buffer.add_char b '|';
  Reg.Map.iter
    (fun r v ->
      if v <> 0 then begin
        Buffer.add_string b r;
        Buffer.add_char b ':';
        add_int b v;
        Buffer.add_char b ';'
      end)
    c.regs

let config_key codes c =
  let b = Buffer.create 32 in
  add_config codes b c;
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Thread states                                                       *)
(* ------------------------------------------------------------------ *)

type state = {
  tid : Thread_id.t;
  started : bool;
  fuel : int option;
  config : Semantics.config;
}

let rec stmt_has_loop = function
  | Ast.While _ -> true
  | Ast.Block l -> List.exists stmt_has_loop l
  | Ast.If (_, s1, s2) -> stmt_has_loop s1 || stmt_has_loop s2
  | Ast.Store _ | Ast.Load _ | Ast.Move _ | Ast.Lock _ | Ast.Unlock _
  | Ast.Skip | Ast.Print _ | Ast.Atomic _ ->
      false

let has_loop p = List.exists (List.exists stmt_has_loop) p.Ast.threads

let make ?(fuel = 64) p =
  let fuel = if has_loop p then Some fuel else None in
  let codes = codes p in
  let initial =
    List.mapi
      (fun tid thread ->
        { tid; started = false; fuel; config = Semantics.initial thread })
      p.Ast.threads
  in
  let spend st = match st.fuel with Some f -> Some (f - 1) | None -> None in
  let steps st =
    if not st.started then
      [ System.Emit (Action.Start st.tid, { st with started = true }) ]
    else if st.fuel = Some 0 then []
    else
      match Semantics.next st.config with
      | Semantics.Done | Semantics.Diverged -> []
      | Semantics.Write (l, v, c) ->
          [ System.Emit
              (Action.Write (l, v), { st with config = c; fuel = spend st }) ]
      | Semantics.Read (l, k) ->
          [ System.Read
              (l, fun v -> Some { st with config = k v; fuel = spend st }) ]
      | Semantics.Rmw (l, k) ->
          [ System.Rmw
              ( l,
                fun v ->
                  let w, c = k v in
                  [ (w, { st with config = c; fuel = spend st }) ] ) ]
      | Semantics.Lock (m, c) ->
          [ System.Emit
              (Action.Lock m, { st with config = c; fuel = spend st }) ]
      | Semantics.Unlock (m, c) ->
          [ System.Emit
              (Action.Unlock m, { st with config = c; fuel = spend st }) ]
      | Semantics.Output (v, c) ->
          [ System.Emit
              (Action.External v, { st with config = c; fuel = spend st }) ]
  in
  let key st =
    let b = Buffer.create 32 in
    add_int b st.tid;
    Buffer.add_char b (if st.started then '+' else '-');
    (match st.fuel with None -> () | Some f -> add_int b f);
    Buffer.add_char b '|';
    add_config codes b st.config;
    Buffer.contents b
  in
  { System.initial; steps; key }

let local_actions p =
  (* locations accessed by at most one thread *)
  let tables = List.map Ast.fv_thread p.Ast.threads in
  let shared =
    List.concat_map Location.Set.elements tables
    |> List.sort Location.compare
    |> fun locs ->
    let rec dups = function
      | a :: (b :: _ as rest) ->
          if Location.equal a b then a :: dups rest else dups rest
      | _ -> []
    in
    Location.Set.of_list (dups locs)
  in
  fun a ->
    match Action.location a with
    | Some l -> not (Location.Set.mem l shared)
    | None -> false
