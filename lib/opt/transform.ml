open Safeopt_trace
open Safeopt_lang

type step = {
  rule : string;
  thread : Thread_id.t;
  before : Ast.program;
  after : Ast.program;
}

let pp_step ppf s =
  Fmt.pf ppf "%s @@ thread %a" s.rule Thread_id.pp s.thread

type chain = step list

let pp_chain ppf c = Fmt.(list ~sep:(any " ; ") pp_step) ppf c

(* All rewrites of a statement list: rule windows starting at every
   position, plus recursive rewrites inside compound heads. *)
let rec list_rewrites rule vol ~ctx (l : Ast.thread) : Ast.thread list =
  let at_head = rule.Rule.rewrites_at vol ~ctx l in
  let deeper =
    match l with
    | [] -> []
    | s :: rest ->
        let in_head =
          stmt_rewrites rule vol ~ctx s |> List.map (fun s' -> s' :: rest)
        in
        let in_rest =
          list_rewrites rule vol ~ctx rest |> List.map (fun rest' -> s :: rest')
        in
        in_head @ in_rest
  in
  at_head @ deeper

and stmt_rewrites rule vol ~ctx (s : Ast.stmt) : Ast.stmt list =
  match s with
  | Ast.Block l ->
      list_rewrites rule vol ~ctx l |> List.map (fun l' -> Ast.Block l')
  | Ast.If (t, s1, s2) ->
      let left =
        stmt_rewrites rule vol ~ctx s1
        |> List.map (fun s1' -> Ast.If (t, s1', s2))
      in
      let right =
        stmt_rewrites rule vol ~ctx s2
        |> List.map (fun s2' -> Ast.If (t, s1, s2'))
      in
      left @ right
  | Ast.While (t, body) ->
      stmt_rewrites rule vol ~ctx body
      |> List.map (fun body' -> Ast.While (t, body'))
  | Ast.Store _ | Ast.Load _ | Ast.Move _ | Ast.Lock _ | Ast.Unlock _
  | Ast.Skip | Ast.Print _ | Ast.Atomic _ ->
      []

let thread_rewrites rule vol thread =
  let ctx = Ast.regs_thread thread in
  list_rewrites rule vol ~ctx thread

let program_rewrites rules (p : Ast.program) =
  List.concat_map
    (fun rule ->
      List.concat
        (List.mapi
           (fun tid thread ->
             thread_rewrites rule p.Ast.volatile thread
             |> List.map (fun thread' ->
                    let threads =
                      List.mapi
                        (fun i t -> if i = tid then thread' else t)
                        p.Ast.threads
                    in
                    {
                      rule = rule.Rule.name;
                      thread = tid;
                      before = p;
                      after = { p with Ast.threads };
                    }))
           p.Ast.threads))
    rules

(* Programs seen by the rewrite searches, by structural identity. *)
module Program_tbl = Hashtbl.Make (struct
  type t = Ast.program

  let equal = Ast.equal_program
  let hash = Ast.hash_program
end)

let reachable ?(max_programs = 10_000) rules p =
  let seen = Program_tbl.create 97 in
  let out = ref [] in
  let queue = Queue.create () in
  Queue.add p queue;
  Program_tbl.add seen p ();
  (try
     while not (Queue.is_empty queue) do
       let q = Queue.pop queue in
       out := q :: !out;
       if Program_tbl.length seen < max_programs then
         List.iter
           (fun s ->
             if not (Program_tbl.mem seen s.after) then begin
               Program_tbl.add seen s.after ();
               Queue.add s.after queue
             end)
           (program_rewrites rules q)
     done
   with Exit -> ());
  List.rev !out

let find_chain ?(max_programs = 10_000) rules ~source ~target =
  let seen : chain Program_tbl.t = Program_tbl.create 97 in
  let queue = Queue.create () in
  Queue.add (source, []) queue;
  Program_tbl.add seen source [];
  let found = ref None in
  while (not (Queue.is_empty queue)) && !found = None do
    let q, chain_rev = Queue.pop queue in
    if Ast.equal_program q target then found := Some (List.rev chain_rev)
    else if Program_tbl.length seen < max_programs then
      List.iter
        (fun s ->
          if not (Program_tbl.mem seen s.after) then begin
            Program_tbl.add seen s.after (s :: chain_rev);
            Queue.add (s.after, s :: chain_rev) queue
          end)
        (program_rewrites rules q)
  done;
  !found

let apply_named name p =
  match Rule.by_name name with
  | None -> Error (Printf.sprintf "unknown rule %S" name)
  | Some rule -> (
      match program_rewrites [ rule ] p with
      | [] -> Error (Printf.sprintf "rule %s does not apply" name)
      | s :: _ -> Ok s.after)
