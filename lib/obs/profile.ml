(* The span-tree profiler over the tracer's event stream.

   [Report] folds spans into flat per-phase wall totals; this module
   keeps the tree.  Each Begin/End pair becomes a node under its
   [parent] span, self time is total minus the children's totals, and
   two views come out: a per-name aggregate (count, total, self) for
   the hot-span table, and collapsed stacks ("root;child;leaf N") for
   flamegraph.pl / speedscope.

   Determinism: unclosed spans are clamped to the last timestamp in the
   stream, aggregate rows sort by self time descending with the span
   name as tie-break, and collapsed stacks sort lexicographically — the
   same trace always renders the same bytes (the cram tests pin this on
   a committed fixed-timestamp trace). *)

type node = {
  n_name : string;
  n_start : float;
  n_stop : float;
  n_children : int list;  (** span ids, in begin order *)
}

type agg = {
  a_name : string;
  a_count : int;
  a_total : float;  (** wall seconds inside spans of this name *)
  a_self : float;  (** total minus time inside child spans *)
}

(* An exploration span names the engine that decided it ("seq", "par",
   "seq→par") in an [engine] attribute on its end event; the profile
   keeps the engines apart as [name[engine]], so an escalated call's
   time (abandoned sequential prefix included) is not averaged into
   the sequential calls'. *)
let with_engine name (e : Event.t) =
  match List.assoc_opt "engine" e.attrs with
  | Some (Event.Str engine) -> name ^ "[" ^ engine ^ "]"
  | _ -> name

(* Build the span forest: nodes indexed by span id, roots in begin
   order.  Unclosed spans (a crashed or truncated trace) get the last
   timestamp seen, so their time is still accounted for. *)
let forest (events : Event.t list) =
  let last_ts =
    List.fold_left (fun acc (e : Event.t) -> Float.max acc e.ts) 0. events
  in
  let nodes : (int, node) Hashtbl.t = Hashtbl.create 64 in
  let roots = ref [] in
  List.iter
    (fun (e : Event.t) ->
      match e.kind with
      | Event.Begin ->
          Hashtbl.replace nodes e.id
            {
              n_name = e.name;
              n_start = e.ts;
              n_stop = last_ts;
              n_children = [];
            };
          if e.parent >= 0 && Hashtbl.mem nodes e.parent then begin
            let p = Hashtbl.find nodes e.parent in
            Hashtbl.replace nodes e.parent
              { p with n_children = e.id :: p.n_children }
          end
          else roots := e.id :: !roots
      | Event.End -> (
          match Hashtbl.find_opt nodes e.id with
          | Some n ->
              Hashtbl.replace nodes e.id
                { n with n_name = with_engine n.n_name e; n_stop = e.ts }
          | None -> ())
      | Event.Instant | Event.Counter -> ())
    events;
  let nodes =
    Hashtbl.fold
      (fun id n acc ->
        Hashtbl.replace acc id { n with n_children = List.rev n.n_children };
        acc)
      nodes
      (Hashtbl.create (Hashtbl.length nodes))
  in
  (nodes, List.rev !roots)

let wall n = Float.max 0. (n.n_stop -. n.n_start)

let self_time nodes n =
  let inside =
    List.fold_left
      (fun acc id ->
        match Hashtbl.find_opt nodes id with
        | Some c -> acc +. wall c
        | None -> acc)
      0. n.n_children
  in
  Float.max 0. (wall n -. inside)

(* ------------------------------------------------------------------ *)
(* Hot-span aggregate                                                  *)
(* ------------------------------------------------------------------ *)

let aggregate events =
  let nodes, _ = forest events in
  let by_name : (string, int * float * float) Hashtbl.t = Hashtbl.create 16 in
  Hashtbl.iter
    (fun _ n ->
      let count, total, self =
        Option.value ~default:(0, 0., 0.) (Hashtbl.find_opt by_name n.n_name)
      in
      Hashtbl.replace by_name n.n_name
        (count + 1, total +. wall n, self +. self_time nodes n))
    nodes;
  let rows =
    Hashtbl.fold
      (fun name (count, total, self) acc ->
        { a_name = name; a_count = count; a_total = total; a_self = self }
        :: acc)
      by_name []
  in
  List.sort
    (fun a b ->
      match Float.compare b.a_self a.a_self with
      | 0 -> String.compare a.a_name b.a_name
      | c -> c)
    rows

let top_k k events =
  let rows = aggregate events in
  List.filteri (fun i _ -> i < k) rows

let ms w = Printf.sprintf "%.3fms" (w *. 1e3)

let pp_top ?(k = 10) ppf events =
  let open Format in
  let rows = top_k k events in
  if rows = [] then fprintf ppf "no spans in trace@."
  else begin
    fprintf ppf "hot spans (top %d by self time):@." (List.length rows);
    fprintf ppf "  %-28s %5s %12s %12s %6s@." "span" "count" "self" "total"
      "self%";
    let grand = List.fold_left (fun acc r -> acc +. r.a_self) 0. rows in
    List.iter
      (fun r ->
        let pct = if grand > 0. then 100. *. r.a_self /. grand else 0. in
        fprintf ppf "  %-28s %5d %12s %12s %5.1f%%@." r.a_name r.a_count
          (ms r.a_self) (ms r.a_total) pct)
      rows
  end

(* ------------------------------------------------------------------ *)
(* Collapsed stacks                                                    *)
(* ------------------------------------------------------------------ *)

(* flamegraph.pl's folded format: one line per distinct stack,
   "root;child;leaf <weight>", weight a non-negative integer.  We weigh
   by self time in microseconds so the leaf frames of a flamegraph are
   the code that actually burned the time.  speedscope auto-detects
   this format. *)
let collapsed events =
  let nodes, roots = forest events in
  let stacks : (string, int) Hashtbl.t = Hashtbl.create 32 in
  let rec walk prefix id =
    match Hashtbl.find_opt nodes id with
    | None -> ()
    | Some n ->
        let frame =
          (* the folded format reserves ';' as the separator *)
          String.map (fun c -> if c = ';' then ':' else c) n.n_name
        in
        let stack = if prefix = "" then frame else prefix ^ ";" ^ frame in
        let us = int_of_float (Float.round (self_time nodes n *. 1e6)) in
        if us > 0 then
          Hashtbl.replace stacks stack
            (us + Option.value ~default:0 (Hashtbl.find_opt stacks stack));
        List.iter (walk stack) n.n_children
  in
  List.iter (walk "") roots;
  Hashtbl.fold (fun stack us acc -> (stack, us) :: acc) stacks []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let pp_collapsed ppf events =
  List.iter
    (fun (stack, us) -> Format.fprintf ppf "%s %d@." stack us)
    (collapsed events)
