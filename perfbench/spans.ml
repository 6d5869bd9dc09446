(* The traced run's span recorder.

   The benchmark wraps each call it makes into a layer's public
   function in a span (name, start, end, parent).  Spans are kept in
   memory and written out once, when the run ends, in the JSONL event
   format of [Safeopt_obs.Event], so [drfopt report --profile] and
   [--flamegraph] render the benchmark's span tree.  Only the caller's
   domain records spans (the benchmark is a single closed-loop caller),
   so the recorder needs no locking.  The program's own tracer stays
   off throughout. *)

module Clock = Safeopt_obs.Clock
module Ev = Safeopt_obs.Event

type span = {
  id : int;
  parent : int;  (** -1 for a root *)
  name : string;
  start : float;
  mutable stop : float;
  mutable attrs : (string * Ev.value) list;
}

let on = ref false
let recorded : span list ref = ref []
let next_id = ref 0
let current : span option ref = ref None
let origin = ref 0.

let start () =
  on := true;
  recorded := [];
  next_id := 0;
  current := None;
  origin := Clock.now ()

let stop () = on := false

(* [record name f] runs [f ()] inside a span that is a child of the
   innermost open one.  With recording off it is just [f ()]. *)
let record ?(attrs = []) name f =
  if not !on then f ()
  else begin
    let s =
      {
        id = !next_id;
        parent = (match !current with Some p -> p.id | None -> -1);
        name;
        start = Clock.now () -. !origin;
        stop = nan;
        attrs;
      }
    in
    incr next_id;
    recorded := s :: !recorded;
    let saved = !current in
    current := Some s;
    Fun.protect
      ~finally:(fun () ->
        s.stop <- Clock.now () -. !origin;
        current := saved)
      f
  end

(* Attach a result attribute to the innermost open span. *)
let attr key v =
  match !current with
  | Some s when !on -> s.attrs <- s.attrs @ [ (key, v) ]
  | _ -> ()

let all () = List.rev !recorded
let duration s = s.stop -. s.start

(* Self time: a span's duration minus the time its direct children
   cover.  Maps each span name to (spans, summed self seconds). *)
let self_times spans =
  let child_time = Hashtbl.create 256 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child_time s.parent
          (duration s
          +. Option.value ~default:0. (Hashtbl.find_opt child_time s.parent)))
    spans;
  let by_name = Hashtbl.create 32 in
  List.iter
    (fun s ->
      let self =
        duration s -. Option.value ~default:0. (Hashtbl.find_opt child_time s.id)
      in
      let n, t = Option.value ~default:(0, 0.) (Hashtbl.find_opt by_name s.name) in
      Hashtbl.replace by_name s.name (n + 1, t +. self))
    spans;
  by_name

let events spans =
  let ev kind s ts name attrs =
    { Ev.kind; name; id = s.id; parent = s.parent; domain = 0; ts; attrs }
  in
  List.concat_map
    (fun s -> [ ev Ev.Begin s s.start s.name []; ev Ev.End s s.stop "" s.attrs ])
    spans
  |> List.sort (fun (a : Ev.t) (b : Ev.t) ->
         (* on equal timestamps: ends before begins, inner ends first,
            outer begins first — the order the calls really nest in *)
         match (Float.compare a.ts b.ts, a.kind, b.kind) with
         | 0, Ev.Begin, _ when a.id = b.id -> -1
         | 0, Ev.End, _ when a.id = b.id -> 1
         | 0, Ev.End, Ev.Begin -> -1
         | 0, Ev.Begin, Ev.End -> 1
         | 0, Ev.End, _ -> compare b.id a.id
         | 0, _, _ -> compare a.id b.id
         | c, _, _ -> c)

let write path spans =
  let oc = open_out path in
  List.iter
    (fun e ->
      output_string oc (Safeopt_obs.Json.to_string (Ev.to_json e));
      output_char oc '\n')
    (events spans);
  close_out oc
