open Safeopt_trace
module Metrics = Safeopt_obs.Metrics
module Tracer = Safeopt_obs.Tracer
module Ev = Safeopt_obs.Event

exception Cyclic
exception Too_many_states of int

let default_max_states = 2_000_000

(* ------------------------------------------------------------------ *)
(* Exploration statistics                                              *)
(* ------------------------------------------------------------------ *)

type stats = {
  mutable states : int;
  mutable edges : int;
  mutable memo_hits : int;
  mutable por_cuts : int;
  mutable peak_frontier : int;
  mutable wall : float;
  mutable domains : int;
  mutable steals : int;
  mutable lock_waits : int;
  mutable thread_states : int;
}

let create_stats () =
  {
    states = 0;
    edges = 0;
    memo_hits = 0;
    por_cuts = 0;
    peak_frontier = 0;
    wall = 0.;
    domains = 0;
    steals = 0;
    lock_waits = 0;
    thread_states = 0;
  }

let reset_stats s =
  s.states <- 0;
  s.edges <- 0;
  s.memo_hits <- 0;
  s.por_cuts <- 0;
  s.peak_frontier <- 0;
  s.wall <- 0.;
  s.domains <- 0;
  s.steals <- 0;
  s.lock_waits <- 0;
  s.thread_states <- 0

let merge_stats ~into s =
  into.states <- into.states + s.states;
  into.edges <- into.edges + s.edges;
  into.memo_hits <- into.memo_hits + s.memo_hits;
  into.por_cuts <- into.por_cuts + s.por_cuts;
  if s.peak_frontier > into.peak_frontier then
    into.peak_frontier <- s.peak_frontier;
  into.wall <- into.wall +. s.wall;
  if s.domains > into.domains then into.domains <- s.domains;
  into.steals <- into.steals + s.steals;
  into.lock_waits <- into.lock_waits + s.lock_waits;
  into.thread_states <- into.thread_states + s.thread_states

(* The mutable record remains the per-worker accumulation cell (workers
   merge privately and join, no synchronisation in the hot loops), but
   the one counter system is the {!Safeopt_obs.Metrics} registry:
   [publish] folds a record into a registry under "explorer.*" names,
   and the renderers below round-trip through a registry, so the record
   and the registry views can never drift. *)
let publish ~into s =
  let c name v = Metrics.add (Metrics.counter into name) v in
  c "explorer.states" s.states;
  c "explorer.edges" s.edges;
  c "explorer.memo_hits" s.memo_hits;
  c "explorer.por_cuts" s.por_cuts;
  c "explorer.steals" s.steals;
  c "explorer.lock_waits" s.lock_waits;
  c "explorer.thread_states" s.thread_states;
  let g name v = Metrics.record (Metrics.gauge into name) v in
  g "explorer.peak_frontier" (float_of_int s.peak_frontier);
  g "explorer.wall_s" s.wall;
  g "explorer.domains" (float_of_int s.domains)

let of_registry reg =
  let c name = Option.value ~default:0 (Metrics.find_counter reg name) in
  let gmax name =
    match Metrics.find_gauge reg name with
    | Some g -> int_of_float g.Metrics.g_max
    | None -> 0
  in
  let gsum name =
    match Metrics.find_gauge reg name with
    | Some g -> g.Metrics.g_mean *. float_of_int g.Metrics.g_count
    | None -> 0.
  in
  {
    states = c "explorer.states";
    edges = c "explorer.edges";
    memo_hits = c "explorer.memo_hits";
    por_cuts = c "explorer.por_cuts";
    peak_frontier = gmax "explorer.peak_frontier";
    wall = gsum "explorer.wall_s";
    domains = gmax "explorer.domains";
    steals = c "explorer.steals";
    lock_waits = c "explorer.lock_waits";
    thread_states = c "explorer.thread_states";
  }

let via_registry s =
  let reg = Metrics.create ~stripes:1 () in
  publish ~into:reg s;
  of_registry reg

let pp_stats ppf s =
  let s = via_registry s in
  Fmt.pf ppf
    "@[<v>exploration: %d states, %d transitions@ memo hits: %d, POR cuts: \
     %d@ thread states compiled: %d@ peak frontier depth: %d@ wall time: \
     %.6f s"
    s.states s.edges s.memo_hits s.por_cuts s.thread_states s.peak_frontier
    s.wall;
  if s.domains > 0 then
    Fmt.pf ppf "@ parallel: %d domains, %d steals, %d lock waits" s.domains
      s.steals s.lock_waits;
  Fmt.pf ppf "@]"

(* A dummy sink so the hot loops mutate unconditionally instead of
   matching on an option at every step. *)
let sink = function Some s -> s | None -> create_stats ()

let copy_stats s = { s with states = s.states }

let delta_stats ~now ~before =
  {
    states = now.states - before.states;
    edges = now.edges - before.edges;
    memo_hits = now.memo_hits - before.memo_hits;
    por_cuts = now.por_cuts - before.por_cuts;
    peak_frontier = now.peak_frontier;
    wall = now.wall -. before.wall;
    domains = now.domains;
    steals = now.steals - before.steals;
    lock_waits = now.lock_waits - before.lock_waits;
    thread_states = now.thread_states - before.thread_states;
  }

(* In-flight tracking for the heartbeat sampler.

   [publish] only lands a run's counters in the global registry at
   entry-point *end*, so a sampler reading just the registry would see
   a long exploration as a flat line.  Instead every stats record a
   run is actively mutating — the entry point's record and, under
   parallelism, each per-worker record — is registered here with a
   baseline copy.  {!live_progress} folds the registry together with
   the in-flight deltas; [finish] removes an entry and runs its
   publish/merge continuation {e under the same lock}, so any unit of
   work is visible exactly once — still in flight or already
   published, never both, never neither.  That hand-off is what makes
   consecutive heartbeat snapshots monotone in every cumulative
   counter (the property the snapshot tests pin).

   Reading an in-flight record from the sampler domain races with the
   worker mutating it: the fields are mutable ints and one boxed float
   — word-atomic under the OCaml memory model, never torn; a stale
   read only under-counts for one tick.  The hot loops are untouched
   (the sampler pulls), so a disabled heartbeat costs exploration
   nothing at all. *)
module Live = struct
  let mu = Mutex.create ()
  let cells : (stats * stats) list ref = ref []

  let track s base =
    Mutex.lock mu;
    cells := (s, base) :: !cells;
    Mutex.unlock mu

  let finish s commit =
    Mutex.lock mu;
    cells := List.filter (fun (c, _) -> not (c == s)) !cells;
    Fun.protect ~finally:(fun () -> Mutex.unlock mu) commit
end

let live_progress () =
  Mutex.lock Live.mu;
  let s = of_registry Metrics.global in
  List.iter
    (fun (c, base) ->
      merge_stats ~into:s (delta_stats ~now:(copy_stats c) ~before:base))
    !Live.cells;
  Mutex.unlock Live.mu;
  s

(* The engine that decided an entry-point call: the sequential DFS, the
   work-stealing engine, or the sequential DFS that ran out of its
   [steal_after] budget and handed the call to the work-stealing engine
   (see [granular] below). *)
type engine = Seq | Par | Seq_par

let engine_name = function Seq -> "seq" | Par -> "par" | Seq_par -> "seq→par"

(* Entry-point wrapper replacing the old [timed]: accumulates wall time
   into the caller's record exactly as before and, when telemetry is
   live, materialises a record even for callers that passed none, then
   publishes this call's deltas into the global registry and closes one
   span per entry point with the result counters and the deciding
   engine as attributes; [attrs] are set when the span opens.  [f]
   receives the engine cell (it starts at [Seq]; an engine choice
   overwrites it) and the record.  With telemetry off and no [?stats],
   the cost is the [live] test. *)
let observed ?attrs name stats f =
  let engine = ref Seq in
  let live = Metrics.enabled () || Tracer.enabled () in
  match (stats, live) with
  | None, false -> f engine None
  | _ ->
      let s = match stats with Some s -> s | None -> create_stats () in
      let before = copy_stats s in
      let tracked = Metrics.enabled () in
      if tracked then Live.track s before;
      let sp =
        if Tracer.enabled () then Tracer.span ?attrs name else Tracer.none
      in
      let t0 = Clock.now () in
      Fun.protect
        ~finally:(fun () ->
          s.wall <- s.wall +. Clock.elapsed t0;
          if live then begin
            let d = delta_stats ~now:s ~before in
            if tracked then
              Live.finish s (fun () ->
                  publish ~into:Metrics.global d;
                  if d.wall > 0. && d.states > 0 then
                    Metrics.record
                      (Metrics.gauge Metrics.global "explorer.states_per_s")
                      (float_of_int d.states /. d.wall));
            if sp <> Tracer.none then
              let attempts = float_of_int (d.edges + 1) in
              Tracer.close_span
                ~attrs:
                  [
                    ("states", Ev.Int d.states);
                    ("edges", Ev.Int d.edges);
                    ("memo_hits", Ev.Int d.memo_hits);
                    ("por_cuts", Ev.Int d.por_cuts);
                    ("thread_states", Ev.Int d.thread_states);
                    ( "intern_hit_rate",
                      Ev.Float
                        ((attempts -. float_of_int d.states) /. attempts) );
                    ("engine", Ev.Str (engine_name !engine));
                  ]
                sp
          end)
        (fun () -> f engine (Some s))

(* ------------------------------------------------------------------ *)
(* Interning                                                           *)
(* ------------------------------------------------------------------ *)

module Intern = struct
  type t = (string, int) Hashtbl.t

  let create () : t = Hashtbl.create 256

  let id (t : t) s =
    match Hashtbl.find_opt t s with
    | Some i -> i
    | None ->
        let i = Hashtbl.length t in
        Hashtbl.add t s i;
        i
end

(* ------------------------------------------------------------------ *)
(* Memory disciplines                                                  *)
(* ------------------------------------------------------------------ *)

module type BUFFER = sig
  type t

  val name : string
  val empty : t
  val is_empty : t -> bool
  val push : Location.t -> Value.t -> t -> t
  val forward : t -> Location.t -> Value.t option
  val drains : t -> ((Location.t * Value.t) * t) list
  val digest : (Location.t -> int) -> t -> int list
end

(* What the threads of a system run over: shared memory alone (SC), or
   a store buffer per thread of discipline ['b] in front of it, where
   writes to the [vol] locations fence (TSO, PSO). *)
type 'b memory =
  | Sc
  | Buffered of (module BUFFER with type t = 'b) * Location.Volatile.t

(* ------------------------------------------------------------------ *)
(* Hash-consed scheduler states                                        *)
(* ------------------------------------------------------------------ *)

(* A scheduler state carries its own digest pieces: [tkeys.(i)] is the
   interned key of thread [i]'s state, [bkeys.(i)] that of its store
   buffer (no buffers, and no keys, under SC), [mem_id]/[locks_id] the
   interned canonical serialisations of the shared memory and the
   monitor table.  Successors update only the piece an action touches,
   so the O(|state|) re-serialisation of the old string keys happens at
   most once per changed component per transition, not once per
   component per visit. *)
type ('ts, 'b) state = {
  threads : 'ts array;
  tkeys : int array;
  bufs : 'b array;
  bkeys : int array;
  mem : Value.t Location.Map.t;
  mem_id : int;
  locks : (Thread_id.t * int) Monitor.Map.t;
  locks_id : int;
}

(* ------------------------------------------------------------------ *)
(* Compiled thread steps                                               *)
(* ------------------------------------------------------------------ *)

(* A thread's next steps depend only on its own state and, for a read,
   on the value it reads; [System.key] promises that equal keys have
   equal futures.  So a thread state's steps are compiled once per
   exploration, under its interned key, and every scheduler state that
   holds a thread with that key reuses them.

   A successor is kept with its own interned key, built the first time
   a search follows the step ([kid] is -1 until then): the key of a
   step that a persistent set or a sleep set cuts is never built, and a
   followed one is built once however many global states follow it.
   A read's answers are kept per read value as the scheduler asks
   (including a decline), with their labels, and likewise an RMW's
   outcomes. *)
type 'ts next = { next : 'ts; mutable kid : int }

(* A function of the value read, asked at most once per value. *)
type 'a by_value = {
  ask : Value.t -> 'a;
  mutable seen : (Value.t * 'a) list;
}

let rec lookup v = function
  | [] -> None
  | (v', a) :: rest -> if Value.equal v v' then Some a else lookup v rest

let at q v =
  match lookup v q.seen with
  | Some a -> a
  | None ->
      let a = q.ask v in
      q.seen <- (v, a) :: q.seen;
      a

type 'ts compiled =
  | Emit of Action.t * 'ts next
  | Read of Location.t * (Action.t * 'ts next) option by_value
  | Rmw of Location.t * (Value.t * Action.t * 'ts next) list by_value

let successor ts = { next = ts; kid = -1 }

let compile = function
  | System.Emit (Action.Read _, _) ->
      invalid_arg "Explorer: reads must use System.Read steps"
  | System.Emit (Action.Rmw _, _) ->
      invalid_arg "Explorer: RMWs must use System.Rmw steps"
  | System.Emit (a, ts') -> Emit (a, successor ts')
  | System.Read (l, read) ->
      let ask v =
        Option.map (fun ts' -> (Action.Read (l, v), successor ts')) (read v)
      in
      Read (l, { ask; seen = [] })
  | System.Rmw (l, rmw) ->
      let ask v =
        List.map
          (fun (w, ts') -> (w, Action.Rmw (l, v, w), successor ts'))
          (rmw v)
      in
      Rmw (l, { ask; seen = [] })

(* The memo: thread key id -> compiled steps, in an array that grows
   to the largest id seen.  The only caller of [System.steps]; each
   compile counts one [thread_states] into [s].  Compiled entries are
   mutated as reads are answered, so a table belongs to one domain: the
   sequential engines own one, and each worker of the stealing engine
   its own (see [for_worker]). *)
let memo_steps (sys : 'ts System.t) (s : stats) =
  let tbl = ref [||] in
  fun kid ts ->
    let t = !tbl in
    match if kid < Array.length t then t.(kid) else None with
    | Some steps -> steps
    | None ->
        let steps = List.map compile (sys.System.steps ts) in
        s.thread_states <- s.thread_states + 1;
        let t =
          if kid < Array.length t then t
          else begin
            let t' = Array.make (max (2 * Array.length t) (kid + 64)) None in
            Array.blit t 0 t' 0 (Array.length t);
            tbl := t';
            t'
          end
        in
        t.(kid) <- Some steps;
        steps

(* The interning context is a record of closures so the sequential
   engine (plain [Hashtbl]s, no synchronisation) and the parallel
   engine (striped tables from {!Par}) share every function below
   ([initial], [enabled], [state_id], ...) without the sequential path
   paying any mutex or atomic cost. *)
type ('ts, 'b) ctx = {
  sys : 'ts System.t;
  memory : 'b memory;
  steps : int -> 'ts -> 'ts compiled list;
      (** a thread state's compiled steps, by its interned key *)
  tkey : string -> int;  (** thread-state keys *)
  lkey : string -> int;  (** locations *)
  mkey : string -> int;  (** monitors *)
  mems : int array -> int;  (** canonical memories *)
  lockts : int array -> int;  (** canonical monitor tables *)
  bkey : 'b -> int;  (** store buffers *)
  ids : int array -> int * bool;  (** full state digest -> (id, fresh) *)
  arena_words : unit -> int;  (** packed digest words across all tables *)
}

(* The context stores its int-array digests (memories, monitor tables,
   buffers, full states) in {!Par.Ptbl} packed arenas — unboxed bump
   allocation, open-addressing index, no per-state boxed key.  The
   sequential context ([striped = false]) uses plain hash tables and the
   single-stripe mutex-free arenas, so it pays no synchronisation; the
   parallel one ([striped = true]) the striped tables, safe to call from
   any domain of a pool.  Striped ids come from atomic counters, so
   their numeric order varies across runs; they are only used for
   equality.  [stats] receives the [thread_states] of the context's
   memo; a worker of the stealing engine swaps in its own memo
   ([for_worker]). *)
let make_ctx (type b) ~striped ~stats (memory : b memory) sys : (_, b) ctx =
  let names () =
    if striped then Par.Intern.id (Par.Intern.create ())
    else Intern.id (Intern.create ())
  in
  let table () =
    if striped then Par.Ptbl.create ~dummy:() ()
    else Par.Ptbl.create_local ~dummy:() ()
  in
  let lkey = names () in
  let mems = table () and lockts = table () and bufs = table ()
  and ids = table () in
  {
    sys;
    memory;
    steps = memo_steps sys stats;
    tkey = names ();
    lkey;
    mkey = names ();
    mems = Par.Ptbl.intern mems;
    lockts = Par.Ptbl.intern lockts;
    bkey =
      (match memory with
      | Sc -> fun _ -> 0
      | Buffered ((module B), _) ->
          fun b -> Par.Ptbl.intern bufs (Array.of_list (B.digest lkey b)));
    ids = Par.Ptbl.intern_fresh ids;
    arena_words =
      (fun () ->
        Par.Ptbl.words mems + Par.Ptbl.words lockts + Par.Ptbl.words bufs
        + Par.Ptbl.words ids);
  }

let for_worker ctx stats = { ctx with steps = memo_steps ctx.sys stats }

let intern_mem ctx mem =
  let parts =
    Location.Map.fold (fun l v acc -> ctx.lkey l :: v :: acc) mem []
  in
  ctx.mems (Array.of_list parts)

let intern_locks ctx locks =
  let parts =
    Monitor.Map.fold
      (fun m (o, d) acc -> ctx.mkey m :: o :: d :: acc)
      locks []
  in
  ctx.lockts (Array.of_list parts)

let initial (type b) (ctx : (_, b) ctx) =
  let threads = Array.of_list ctx.sys.System.initial in
  let bufs : b array =
    match ctx.memory with
    | Sc -> [||]
    | Buffered ((module B), _) -> Array.map (fun _ -> B.empty) threads
  in
  {
    threads;
    tkeys = Array.map (fun ts -> ctx.tkey (ctx.sys.System.key ts)) threads;
    bufs;
    bkeys = Array.map ctx.bkey bufs;
    mem = Location.Map.empty;
    mem_id = intern_mem ctx Location.Map.empty;
    locks = Monitor.Map.empty;
    locks_id = intern_locks ctx Monitor.Map.empty;
  }

let state_digest st =
  let n = Array.length st.tkeys and nb = Array.length st.bkeys in
  let d = Array.make (n + nb + 2) 0 in
  Array.blit st.tkeys 0 d 0 n;
  Array.blit st.bkeys 0 d n nb;
  d.(n + nb) <- st.mem_id;
  d.(n + nb + 1) <- st.locks_id;
  d

let state_id ctx st = ctx.ids (state_digest st)

let read_value st l =
  Option.value ~default:Value.default (Location.Map.find_opt l st.mem)

(* [st] with thread [tid] moved to the compiled successor [n]: the one
   place a thread key is built past the initial state, once per
   compiled successor. *)
let set_thread ctx st tid n =
  if n.kid < 0 then n.kid <- ctx.tkey (ctx.sys.System.key n.next);
  let threads = Array.copy st.threads in
  threads.(tid) <- n.next;
  let tkeys = Array.copy st.tkeys in
  tkeys.(tid) <- n.kid;
  { st with threads; tkeys }

let set_buffer ctx st tid buf =
  let bufs = Array.copy st.bufs in
  bufs.(tid) <- buf;
  let bkeys = Array.copy st.bkeys in
  bkeys.(tid) <- ctx.bkey buf;
  { st with bufs; bkeys }

let with_mem ctx st mem = { st with mem; mem_id = intern_mem ctx mem }
let with_locks ctx st locks =
  { st with locks; locks_id = intern_locks ctx locks }

(* The four decisions of a memory discipline.  Under SC a read sees
   memory, a write goes to memory, and nothing waits.  Under a buffered
   discipline: *)

(* - a read sees the thread's own newest buffered write to the location
     (store-to-load forwarding), else memory; *)
let load (type b) (ctx : (_, b) ctx) st tid l =
  match ctx.memory with
  | Sc -> read_value st l
  | Buffered ((module B), _) -> (
      match B.forward st.bufs.(tid) l with
      | Some v -> v
      | None -> read_value st l)

(* - fencing steps (volatile write, lock, unlock, RMW) wait until the
     thread's buffer is empty; *)
let flushed (type b) (ctx : (_, b) ctx) st tid =
  match ctx.memory with
  | Sc -> true
  | Buffered ((module B), _) -> B.is_empty st.bufs.(tid)

(* - a write to a non-volatile location joins the thread's buffer,
     and a volatile one goes to memory once the buffer is empty ([None]
     while it must wait); *)
let store (type b) (ctx : (_, b) ctx) st tid l v =
  match ctx.memory with
  | Buffered ((module B), vol) when not (Location.Volatile.mem vol l) ->
      Some (fun () -> set_buffer ctx st tid (B.push l v st.bufs.(tid)))
  | Buffered _ when not (flushed ctx st tid) -> None
  | Sc | Buffered _ ->
      Some (fun () -> with_mem ctx st (Location.Map.add l v st.mem))

(* - and any buffered write the discipline lets out may drain to
     memory, as a step of its thread labelled with that write (the
     machines explore unreduced, so a label need only not be
     external). *)
let drains (type b) (ctx : (_, b) ctx) st tid add =
  match ctx.memory with
  | Sc -> ()
  | Buffered ((module B), _) ->
      List.iter
        (fun ((l, v), buf') ->
          add (Action.Write (l, v)) (fun () ->
              set_buffer ctx
                (with_mem ctx st (Location.Map.add l v st.mem))
                tid buf'))
        (B.drains st.bufs.(tid))

(* An enabled transition: its thread, its action, and the successor
   state, built only when a search follows the edge. *)
type ('ts, 'b) succ = Thread_id.t * Action.t * (unit -> ('ts, 'b) state)

(* All enabled transitions from a scheduler state, in thread-index then
   step order — witness searches depend on this order being stable.
   Under a buffered memory a thread's drains come before its steps.

   A thread's steps come from the memo by its key ([ctx.steps]), and a
   read's answer from its compiled step; what depends on the global
   state is decided here, eagerly: the read value, the monitor table's
   owner check, the buffer's emptiness.  The successor — a copied
   thread array, an interned memory, monitor table or buffer, and the
   stepping thread's key on its first follow — is a closure: reductions
   cut many transitions by label alone (persistent sets, sleep sets,
   the race check against a state's enabled set), and those are never
   built. *)
let enabled ctx st : _ succ list =
  let out = ref [] in
  Array.iteri
    (fun tid ts ->
      let add a build = out := (tid, a, build) :: !out in
      drains ctx st tid add;
      List.iter
        (fun step ->
          match step with
          | Read (l, q) -> (
              match at q (load ctx st tid l) with
              | Some (a, n) -> add a (fun () -> set_thread ctx st tid n)
              | None -> ())
          | Rmw (l, q) ->
              if flushed ctx st tid then
                List.iter
                  (fun (w, a, n) ->
                    add a (fun () ->
                        set_thread ctx
                          (with_mem ctx st (Location.Map.add l w st.mem))
                          tid n))
                  (at q (read_value st l))
          | Emit (a, n) -> (
              let commit f = add a (fun () -> set_thread ctx (f ()) tid n) in
              let relock locks () = with_locks ctx st locks in
              match a with
              | Action.Write (l, v) -> Option.iter commit (store ctx st tid l v)
              | (Action.Lock _ | Action.Unlock _) when not (flushed ctx st tid)
                ->
                  ()
              | Action.Lock m -> (
                  match Monitor.Map.find_opt m st.locks with
                  | None ->
                      commit (relock (Monitor.Map.add m (tid, 1) st.locks))
                  | Some (owner, d) when Thread_id.equal owner tid ->
                      commit (relock (Monitor.Map.add m (tid, d + 1) st.locks))
                  | Some _ -> ())
              | Action.Unlock m -> (
                  match Monitor.Map.find_opt m st.locks with
                  | Some (owner, d) when Thread_id.equal owner tid ->
                      commit
                        (relock
                           (if d = 1 then Monitor.Map.remove m st.locks
                            else Monitor.Map.add m (tid, d - 1) st.locks))
                  | _ -> ())
              | Action.External _ | Action.Start _ -> commit (fun () -> st)
              | Action.Read _ | Action.Rmw _ ->
                  assert false (* rejected by [compile] *)))
        (ctx.steps st.tkeys.(tid) ts))
    st.threads;
  List.rev !out

(* ------------------------------------------------------------------ *)
(* Independence and sleep sets                                         *)
(* ------------------------------------------------------------------ *)

(* Two transitions of different threads commute iff their actions do not
   conflict as memory accesses (same location with a write involved —
   volatility is irrelevant for commutation, so the conflict test runs
   with an empty volatile set), do not touch the same monitor, and are
   not both external (external actions are the observable behaviour, so
   their relative order must be preserved).  Two RMWs of the same
   location do not {e conflict} (they never race — atomicity orders
   them), but they do not commute either: each one's read sees the
   other's write, so their order changes values.  They are therefore
   dependent here even though [Action.conflicting] excuses them. *)
let independent (t1, a1) (t2, a2) =
  let same_loc_rmw =
    match (a1, a2) with
    | Action.Rmw (l1, _, _), Action.Rmw (l2, _, _) -> Location.equal l1 l2
    | _ -> false
  in
  (not (Thread_id.equal t1 t2))
  && (not (Action.conflicting Location.Volatile.none a1 a2))
  && (not same_loc_rmw)
  && (match (Action.monitor a1, Action.monitor a2) with
     | Some m1, Some m2 -> not (Monitor.equal m1 m2)
     | _ -> true)
  && not (Action.is_external a1 && Action.is_external a2)

type sleeper = Thread_id.t * Action.t

let in_sleep sleep tid a =
  List.exists
    (fun (t, b) -> Thread_id.equal t tid && Action.equal b a)
    sleep

let sleep_subset s1 s2 = List.for_all (fun (t, a) -> in_sleep s2 t a) s1
let sleep_inter s1 s2 = List.filter (fun (t, a) -> in_sleep s2 t a) s1

(* Persistent-set selection, generalising the old singleton rule: if
   some thread's enabled transitions are all invisible and statically
   independent of every other thread ([local], plus start actions), that
   thread's transitions alone form a persistent set.

   The selection is deliberately a pure function of the state — in
   particular it does {e not} look at the arriving sleep set.  That
   makes the per-state exploration a monotone function of the sleep
   lattice (smaller sleep can only add children, never change which
   thread is selected), which is what lets revisits-with-refinement
   converge to an order-independent fixpoint: the reached state set is
   the same whatever order arrivals are processed in — the property the
   parallel engine's exact [count_states] parity rests on.  A selected
   set whose every transition is slept simply expands to nothing, which
   is sound: each slept transition is explored from a sibling branch by
   sleep-set coverage. *)
let persistent_select local succs =
  let is_local a = match a with Action.Start _ -> true | _ -> local a in
  let rec tids_of acc = function
    | [] -> List.rev acc
    | (tid, _, _) :: rest ->
        tids_of (if List.mem tid acc then acc else tid :: acc) rest
  in
  let candidate tid =
    List.for_all
      (fun (t, a, _) -> (not (Thread_id.equal t tid)) || is_local a)
      succs
  in
  match List.find_opt candidate (tids_of [] succs) with
  | Some tid -> List.filter (fun (t, _, _) -> Thread_id.equal t tid) succs
  | None -> succs

(* The transitions a reducing search follows from a state, counting the
   ones the persistent set leaves out as cuts.  Without [local] every
   enabled transition is followed. *)
let select ~local (s : stats) succs =
  match local with
  | None -> succs
  | Some local ->
      let selected = persistent_select local succs in
      if selected != succs then
        s.por_cuts <- s.por_cuts + (List.length succs - List.length selected);
      selected

(* ------------------------------------------------------------------ *)
(* Memoised behaviour / state-count exploration with sleep sets        *)
(* ------------------------------------------------------------------ *)

(* The DFS core shared by [behaviours] and [count_states].  [visit] is
   called once per explored transition with the subtree's result; its
   accumulated value is memoised per (state, sleep set).

   Sleep sets with state matching (Godefroid): a memo entry records the
   sleep set it was computed under and may be reused only by visits
   whose sleep set subsumes it (those need a subset of the explored
   transitions).  A revisit with an incomparable sleep set re-explores
   under the intersection, which only ever shrinks, so the recursion
   terminates and the stored result only grows. *)
let explore_core (type r) ~(empty : r) ~(union : r -> r -> r)
    ~(label : Action.t -> r -> r) ~max_states ~local ~stats memory sys =
  let s = sink stats in
  let ctx = make_ctx ~striped:false ~stats:s memory sys in
  let memo : (int, sleeper list * r) Hashtbl.t = Hashtbl.create 997 in
  let on_stack : (int, unit) Hashtbl.t = Hashtbl.create 97 in
  let count = ref 0 in
  let reduce = Option.is_some local in
  let rec go st sleep depth =
    let id, fresh = state_id ctx st in
    if fresh then begin
      incr count;
      s.states <- s.states + 1;
      if !count > max_states then raise (Too_many_states !count)
    end;
    match Hashtbl.find_opt memo id with
    | Some (stored, r) when (not reduce) || sleep_subset stored sleep ->
        s.memo_hits <- s.memo_hits + 1;
        r
    | prior ->
        if Hashtbl.mem on_stack id then raise Cyclic;
        Hashtbl.add on_stack id ();
        if depth > s.peak_frontier then s.peak_frontier <- depth;
        let sleep =
          match prior with
          | Some (stored, _) -> sleep_inter stored sleep
          | None -> sleep
        in
        let selected = select ~local s (enabled ctx st) in
        let result = ref empty in
        let explored = ref [] in
        List.iter
          (fun (tid, a, succ) ->
            if reduce && in_sleep sleep tid a then
              s.por_cuts <- s.por_cuts + 1
            else begin
              s.edges <- s.edges + 1;
              let child_sleep =
                if reduce then
                  List.filter
                    (fun e -> independent e (tid, a))
                    (List.rev_append !explored sleep)
                else []
              in
              let sub = go (succ ()) child_sleep (depth + 1) in
              result := union !result (label a sub);
              if reduce then explored := (tid, a) :: !explored
            end)
          selected;
        Hashtbl.remove on_stack id;
        Hashtbl.replace memo id (sleep, !result);
        !result
  in
  let r = go (initial ctx) [] 1 in
  (r, !count)

(* ------------------------------------------------------------------ *)
(* Domain-parallel exploration                                         *)
(* ------------------------------------------------------------------ *)

(* The parallel engine splits the work the sequential DFS does in one
   pass into two phases:

   Phase 1 (parallel): frontier discovery over per-worker {!Par.Ws}
   work-stealing deques.  Workers expand states ([enabled] — the
   expensive part: successor construction, interning, hashing) from
   their own deque bottoms (LIFO: the search stays depth-first-ish and
   cache-hot) and steal oldest-first from each other when empty; the
   striped digest table dedupes (the worker that interns a state first
   owns its expansion).

   Phase 2 (sequential): a memoised suffix fold over the discovered
   compact int graph — the cheap part — computing the same result the
   sequential DFS would, including raising [Cyclic] on cycles.

   [par_discover] is the sleep-set-free discovery used by the race
   search (whose [expand] may follow only a persistent set): edges and
   BFS-tree parents accumulate in per-worker lists (no sharing, no
   locks).  The sleep-set-aware discovery used by
   [behaviours]/[count_states] and the store-buffer machines lives in
   [par_explore_core] below. *)

(* Per-worker instrumentation hooks for a {!Par.Ws} run.  The branch on
   the metrics flag is hoisted out: disabled runs get bare closures,
   paying nothing per wait, steal, or push. *)
let ws_hooks (s : stats) =
  if Metrics.enabled () then begin
    let waits = Metrics.histogram Metrics.global "par.lock_wait_s" in
    let steals = Metrics.counter Metrics.global "par.steals" in
    let depth = Metrics.gauge Metrics.global "par.deque_depth" in
    ( (fun dt ->
        s.lock_waits <- s.lock_waits + 1;
        Metrics.observe waits dt),
      (fun n ->
        s.steals <- s.steals + 1;
        Metrics.add steals n),
      fun d ->
        if d > s.peak_frontier then s.peak_frontier <- d;
        Metrics.record depth (float_of_int d) )
  end
  else
    ( (fun (_ : float) -> s.lock_waits <- s.lock_waits + 1),
      (fun (_ : int) -> s.steals <- s.steals + 1),
      fun d -> if d > s.peak_frontier then s.peak_frontier <- d )

let record_arena ctx extra =
  if Metrics.enabled () then
    Metrics.record
      (Metrics.gauge Metrics.global "par.arena_words")
      (float_of_int (ctx.arena_words () + extra))

(* Per-worker records accumulate off-registry until the join, so the
   heartbeat would see a parallel run as a flat line; track each one
   (base = its creation-time zeros).  [join_wstats] replaces the plain
   merge loop: each worker's hand-off from "in flight" to "inside the
   entry-point record" happens under the live lock, keeping the
   sampler's view monotone.  [untrack_wstats] is the abort path
   (Too_many_states, Cyclic): drop the partial deltas, as the
   sequential engine does — a no-op for already-joined workers. *)
let track_wstats (ws : stats array) =
  if Metrics.enabled () then
    Array.iter (fun w -> Live.track w (copy_stats w)) ws

let join_wstats ~into (ws : stats array) =
  Array.iter (fun w -> Live.finish w (fun () -> merge_stats ~into w)) ws

let untrack_wstats (ws : stats array) =
  Array.iter (fun w -> Live.finish w (fun () -> ())) ws

let par_discover (type st lbl) ~pool ~max_states ~(wstats : stats array)
    ~(expand : int -> int -> st -> (lbl * st) list)
    ~(intern : st -> int * bool) (st0 : st) :
    int * (lbl * int) list array * (int * lbl) option array * int =
  let nw = Par.Pool.size pool in
  let ws : (int * st) Par.Ws.t = Par.Ws.create nw in
  let edges : (int * lbl * int) list array = Array.make nw [] in
  let parents : (int * int * lbl) list array = Array.make nw [] in
  let total = Atomic.make 1 in
  let id0, fresh0 = intern st0 in
  assert fresh0;
  wstats.(0).states <- wstats.(0).states + 1;
  Par.Ws.seed ws (id0, st0);
  let sp =
    if Tracer.enabled () then Tracer.span "explore.discover" else Tracer.none
  in
  Fun.protect
    ~finally:(fun () ->
      Tracer.close_span ~attrs:[ ("states", Ev.Int (Atomic.get total)) ] sp)
    (fun () ->
      Par.Pool.run pool (fun w ->
          let s = wstats.(w) in
          let on_wait, on_steal, on_peak = ws_hooks s in
          Par.Ws.run ws w ~on_wait ~on_steal ~on_peak
            (fun (id, st) push ->
              List.iter
                (fun (lbl, st') ->
                  s.edges <- s.edges + 1;
                  let id', fresh = intern st' in
                  edges.(w) <- (id, lbl, id') :: edges.(w);
                  if fresh then begin
                    s.states <- s.states + 1;
                    parents.(w) <- (id', id, lbl) :: parents.(w);
                    let n = Atomic.fetch_and_add total 1 + 1 in
                    if n > max_states then raise (Too_many_states n);
                    push (id', st')
                  end)
                (expand w id st))));
  let n = Atomic.get total in
  let succ : (lbl * int) list array = Array.make n [] in
  Array.iter
    (List.iter (fun (u, l, v) -> succ.(u) <- (l, v) :: succ.(u)))
    edges;
  let parent = Array.make n None in
  Array.iter
    (List.iter (fun (v, u, l) -> parent.(v) <- Some (u, l)))
    parents;
  (n, succ, parent, id0)

(* Memoised suffix fold over the discovered graph — the parallel
   counterpart of [explore_core]'s result computation, on compact int
   ids.  Raises [Cyclic] exactly when a cycle is reachable, like the
   sequential engine. *)
let fold_graph (type r lbl) ~(empty : r) ~(union : r -> r -> r)
    ~(label : lbl -> r -> r) ~(stats : stats)
    (succ : (lbl * int) list array) id0 : r =
  let n = Array.length succ in
  let memo : r option array = Array.make n None in
  let on_stack = Array.make n false in
  let rec go id =
    match memo.(id) with
    | Some r ->
        stats.memo_hits <- stats.memo_hits + 1;
        r
    | None ->
        if on_stack.(id) then raise Cyclic;
        on_stack.(id) <- true;
        let r =
          List.fold_left
            (fun acc (l, id') -> union acc (label l (go id')))
            empty succ.(id)
        in
        on_stack.(id) <- false;
        memo.(id) <- Some r;
        r
  in
  let sp =
    if Tracer.enabled () then Tracer.span "explore.fold" else Tracer.none
  in
  Fun.protect ~finally:(fun () -> Tracer.close_span sp) (fun () -> go id0)

(* Sleep-set-aware parallel discovery.

   Each work item carries its own sleep set (source-set style), so the
   parallel search prunes exactly as hard as the sequential sleep-set
   DFS.  The digest table's per-entry meta holds the state's current
   sleep set, a version counter, and the edge list of its latest
   accepted expansion:

   - An arrival whose sleep set is subsumed by the stored one is
     dropped: everything it would explore is already covered.
   - Otherwise the stored sleep set is refined to the intersection
     (strictly smaller), the version is bumped, and the arrival is
     (re-)expanded under the refined set.  Refinement is a locked
     read-modify-write ({!Par.Ptbl.update}), so concurrent arrivals
     serialise per state.
   - An expansion writes its edges back guarded by its version
     ({!Par.Ptbl.sync}): only the expansion of the {e latest} version
     publishes, so the final graph is the one expanded under each
     state's final (smallest) sleep set.

   Order-independence: per state, the sleep set only ever shrinks
   (a meet-semilattice descent, which terminates), selection is a pure
   function of the state, and a smaller sleep set only adds children —
   so the set of (state, final sleep) pairs is the least fixpoint of a
   monotone operator and independent of arrival order and worker
   count.  The reached state set — hence [count_states] — is therefore
   {e exactly} equal across jobs 1, 2, ..., N.  Re-expansions can
   revisit edges, so [edges]/[por_cuts] may exceed the sequential
   figures under reduction (never under plain enumeration, where sleep
   sets are all empty and every state expands exactly once). *)

type pmeta = {
  mutable psleep : sleeper list;  (** current (smallest) sleep set *)
  mutable pversion : int;  (** bumped on every refinement *)
  mutable pedges : (Action.t * int) list;  (** latest accepted expansion *)
}

let par_explore_core (type r) ~(empty : r) ~(union : r -> r -> r)
    ~(label : Action.t -> r -> r) ~pool ~max_states ~local ~stats memory sys =
  let s = sink stats in
  let ctx = make_ctx ~striped:true ~stats:s memory sys in
  let nw = Par.Pool.size pool in
  let wstats = Array.init nw (fun _ -> create_stats ()) in
  let wctx = Array.map (for_worker ctx) wstats in
  track_wstats wstats;
  Fun.protect ~finally:(fun () -> untrack_wstats wstats) @@ fun () ->
  let reduce = Option.is_some local in
  let dummy = { psleep = []; pversion = 0; pedges = [] } in
  let tbl : pmeta Par.Ptbl.t = Par.Ptbl.create ~dummy () in
  let total = Atomic.make 0 in
  let ws = Par.Ws.create nw in
  (* Intern [st] arriving with [sleep]; decide expansion vs drop under
     the stripe lock.  [f] must not raise, so the budget check happens
     on the returned freshness outside the lock. *)
  let arrive st sleep =
    let d = state_digest st in
    let id, decision =
      Par.Ptbl.update tbl d (function
        | None ->
            let m =
              { psleep = sleep; pversion = 0; pedges = [] }
            in
            (m, `Expand (d, m, 0, sleep, true))
        | Some m ->
            if (not reduce) || sleep_subset m.psleep sleep then (m, `Drop)
            else begin
              m.psleep <- sleep_inter m.psleep sleep;
              m.pversion <- m.pversion + 1;
              (m, `Expand (d, m, m.pversion, m.psleep, false))
            end)
    in
    (id, decision)
  in
  let budget (s : stats) fresh =
    if fresh then begin
      s.states <- s.states + 1;
      let n = Atomic.fetch_and_add total 1 + 1 in
      if n > max_states then raise (Too_many_states n)
    end
  in
  let st0 = initial ctx in
  let id0, decision0 = arrive st0 [] in
  (match decision0 with
  | `Expand (d, m, version, sleep, fresh) ->
      budget wstats.(0) fresh;
      Par.Ws.seed ws (st0, d, m, version, sleep)
  | `Drop -> assert false);
  let sp =
    if Tracer.enabled () then Tracer.span "explore.discover" else Tracer.none
  in
  Fun.protect
    ~finally:(fun () ->
      Tracer.close_span ~attrs:[ ("states", Ev.Int (Atomic.get total)) ] sp)
    (fun () ->
      Par.Pool.run pool (fun w ->
          let s = wstats.(w) and ctx = wctx.(w) in
          let on_wait, on_steal, on_peak = ws_hooks s in
          Par.Ws.run ws w ~on_wait ~on_steal ~on_peak
            (fun (st, d, m, version, sleep) push ->
              let selected = select ~local s (enabled ctx st) in
              let explored = ref [] in
              let es = ref [] in
              List.iter
                (fun (tid, a, succ) ->
                  if reduce && in_sleep sleep tid a then
                    s.por_cuts <- s.por_cuts + 1
                  else begin
                    s.edges <- s.edges + 1;
                    let child_sleep =
                      if reduce then
                        List.filter
                          (fun e -> independent e (tid, a))
                          (List.rev_append !explored sleep)
                      else []
                    in
                    let st' = succ () in
                    let id', decision = arrive st' child_sleep in
                    es := (a, id') :: !es;
                    (match decision with
                    | `Expand (d', m', v', sleep', fresh) ->
                        budget s fresh;
                        push (st', d', m', v', sleep')
                    | `Drop -> ());
                    if reduce then explored := (tid, a) :: !explored
                  end)
                selected;
              (* Publish this expansion's edges unless a refinement has
                 already superseded it: the in-flight item for the
                 latest version always publishes last under the stripe
                 lock, so the final graph is each state's expansion
                 under its final sleep set. *)
              Par.Ptbl.sync tbl d (fun () ->
                  if m.pversion = version then m.pedges <- !es))));
  record_arena ctx (Par.Ptbl.words tbl);
  let n = Par.Ptbl.length tbl in
  let succ : (Action.t * int) list array = Array.make n [] in
  Par.Ptbl.iter tbl (fun id m -> succ.(id) <- m.pedges);
  let r = fold_graph ~empty ~union ~label ~stats:s succ id0 in
  join_wstats ~into:s wstats;
  s.domains <- max s.domains nw;
  (r, n)

(* ------------------------------------------------------------------ *)
(* Engine choice                                                       *)
(* ------------------------------------------------------------------ *)

(* Below this many states the sequential DFS beats the work-stealing
   engine even on real cores, or ties with it: the stealing engine
   pays for striped tables, deque traffic, a second pass over the
   discovered graph and, for the race search, the whole graph where
   the DFS stops at the first race.  The crossover sweep in
   [bench parallel] puts the break-even between 3x10^3 and 1.6x10^4
   states on 2 cores, with a thin, shape-dependent margin in between;
   see explorer.mli and BENCH_parallel.json. *)
let steal_after = 16_384

let pool_size ?jobs ?pool () =
  match pool with
  | Some p -> Par.Pool.size p
  | None -> ( match jobs with None -> 1 | Some j -> Par.resolve_jobs j)

(* The one engine choice behind every [?jobs ?pool] exploration entry
   point.  Without parallelism, or under a budget of at most
   [steal_after], [seq] runs alone with the caller's budget.  Otherwise
   [seq] runs first under a [steal_after] budget, and only its running
   out of that budget hands the call to [par], which starts over with
   the caller's budget (a one-shot [?jobs] pool is only created then).

   The first attempt counts into a private record, merged into the
   caller's only when that attempt decides the call (a result, [Cyclic],
   or the caller's own budget): an escalated call's counters are the
   stealing engine's alone, so jobs N and jobs 1 report the same
   [states].  The heartbeat does not see the private record; it covers
   at most [steal_after] states. *)
let granular ?jobs ?pool ~max_states ~engine ~stats ~seq ~par () =
  let n = pool_size ?jobs ?pool () in
  if n <= 1 || max_states <= steal_after then seq max_states stats
  else
    let first = Option.map (fun _ -> create_stats ()) stats in
    let decided () =
      match (stats, first) with
      | Some s, Some f -> merge_stats ~into:s f
      | _ -> ()
    in
    match seq steal_after first with
    | r ->
        decided ();
        r
    | exception Too_many_states _ -> (
        engine := Seq_par;
        match pool with Some p -> par p | None -> Par.Pool.with_pool n par)
    | exception e ->
        decided ();
        raise e

let beh_label a sub =
  match a with
  | Action.External v -> Behaviour.Set.map (fun b -> v :: b) sub
  | _ -> sub

let seq_behaviours ~local memory sys max_states stats =
  fst
    (explore_core
       ~empty:(Behaviour.Set.singleton [])
       ~union:Behaviour.Set.union ~label:beh_label ~max_states ~local ~stats
       memory sys)

let par_behaviours ~max_states ~local ~stats memory sys pool =
  fst
    (par_explore_core
       ~empty:(Behaviour.Set.singleton [])
       ~union:Behaviour.Set.union ~label:beh_label ~pool ~max_states ~local
       ~stats memory sys)

let behaviours ?(max_states = default_max_states) ?local ?stats ?jobs ?pool
    sys =
  observed "explorer.behaviours" stats (fun engine stats ->
      granular ?jobs ?pool ~max_states ~engine ~stats
        ~seq:(seq_behaviours ~local Sc sys)
        ~par:(par_behaviours ~max_states ~local ~stats Sc sys)
        ())

(* The [model] attribute of a machine's span: its buffer discipline. *)
let model_attr name = [ ("model", Ev.Str name) ]

(* The store-buffer machines explore unreduced: [local] is an SC
   notion, and buffered steps commute differently. *)
let machine_behaviours ?(max_states = default_max_states) ?stats ?jobs ?pool
    buffer vol sys =
  let module B = (val buffer : BUFFER) in
  let memory = Buffered ((module B), vol) in
  observed ~attrs:(model_attr B.name) "explorer.machine" stats
    (fun engine stats ->
      granular ?jobs ?pool ~max_states ~engine ~stats
        ~seq:(seq_behaviours ~local:None memory sys)
        ~par:(par_behaviours ~max_states ~local:None ~stats memory sys)
        ())

let seq_count_states ~local sys max_states stats =
  snd
    (explore_core ~empty:() ~union:(fun () () -> ()) ~label:(fun _ () -> ())
       ~max_states ~local ~stats Sc sys)

let par_count_states ~max_states ~local ~stats sys pool =
  snd
    (par_explore_core ~empty:() ~union:(fun () () -> ())
       ~label:(fun _ () -> ())
       ~pool ~max_states ~local ~stats Sc sys)

let count_states ?(max_states = default_max_states) ?local ?stats ?jobs ?pool
    sys =
  observed "explorer.count_states" stats (fun engine stats ->
      granular ?jobs ?pool ~max_states ~engine ~stats
        ~seq:(seq_count_states ~local sys)
        ~par:(par_count_states ~max_states ~local ~stats sys)
        ())

(* ------------------------------------------------------------------ *)
(* Streaming executions                                                *)
(* ------------------------------------------------------------------ *)

let maximal_executions_seq ?(max_steps = 1_000_000) ?stats sys =
  let s = sink stats in
  let ctx = make_ctx ~striped:false ~stats:s Sc sys in
  let steps = ref 0 in
  let rec go st rev_path : Interleaving.t Seq.t =
   fun () ->
    match enabled ctx st with
    | [] -> Seq.Cons (List.rev rev_path, Seq.empty)
    | succs ->
        Seq.flat_map
          (fun (tid, a, succ) () ->
            incr steps;
            s.edges <- s.edges + 1;
            if !steps > max_steps then raise (Too_many_states !steps);
            go (succ ()) (Interleaving.pair tid a :: rev_path) ())
          (List.to_seq succs) ()
  in
  go (initial ctx) []

let maximal_executions ?max_steps ?stats sys =
  observed "explorer.executions" stats (fun _ stats ->
      List.of_seq (maximal_executions_seq ?max_steps ?stats sys))

let count_executions ?max_steps ?stats sys =
  observed "explorer.executions" stats (fun _ stats ->
      Seq.fold_left
        (fun n _ -> n + 1)
        0
        (maximal_executions_seq ?max_steps ?stats sys))

(* ------------------------------------------------------------------ *)
(* Witness searches                                                    *)
(* ------------------------------------------------------------------ *)

(* wall time and telemetry are handled by [observed] in the entry point *)
let seq_find_adjacent_race ~max_states ~local ?stats vol sys =
  let s = sink stats in
  let ctx = make_ctx ~striped:false ~stats:s Sc sys in
  (* A state's enabled labels are needed both when it is visited and
     for the adjacent-race check on every incoming edge: keep them by
     state id.  Only labels are kept, never the successor closures, so
     the table holds no state alive.  A state is visited on the edge
     that interns it, so a fresh id is exactly an unvisited state. *)
  let labels_tbl : (int, (Thread_id.t * Action.t) list) Hashtbl.t =
    Hashtbl.create 997
  in
  let labels_of id succs =
    let l = List.map (fun (tid, a, _) -> (tid, a)) succs in
    Hashtbl.add labels_tbl id l;
    l
  in
  let count = ref 0 in
  let exception Found of Interleaving.t in
  let rec go succs rev_path depth =
    incr count;
    s.states <- s.states + 1;
    if !count > max_states then raise (Too_many_states !count);
    if depth > s.peak_frontier then s.peak_frontier <- depth;
    List.iter
      (fun (tid, a, succ) ->
        s.edges <- s.edges + 1;
        let st' = succ () in
        let id', fresh = state_id ctx st' in
        let succs', labels' =
          if fresh then
            let l = enabled ctx st' in
            (l, labels_of id' l)
          else ([], Hashtbl.find labels_tbl id')
        in
        List.iter
          (fun (tid', b) ->
            if
              (not (Thread_id.equal tid tid'))
              && Action.conflicting vol a b
            then
              raise
                (Found
                   (List.rev
                      (Interleaving.pair tid' b
                      :: Interleaving.pair tid a
                      :: rev_path))))
          labels';
        if fresh then
          go succs' (Interleaving.pair tid a :: rev_path) (depth + 1))
      (select ~local s succs)
  in
  let st0 = initial ctx in
  let id0, _ = state_id ctx st0 in
  let succs0 = enabled ctx st0 in
  ignore (labels_of id0 succs0);
  try
    go succs0 [] 1;
    None
  with Found i -> Some i

(* Parallel race search: phase-1 discovery records (thread, action)
   edge labels and BFS-tree parents (a fresh state's parent edge is
   fixed by whichever worker interned it first — a well-founded chain
   back to the root); the adjacent-conflict scan and witness-path
   reconstruction then run sequentially on the compact graph.  Under
   reduction [succ] holds only the followed edges, so each expansion
   also records its state's full enabled labels once, in per-worker
   lists merged after the join like the edges, and the scan checks
   every followed edge against those; unreduced, [succ] already holds
   exactly those labels and nothing extra is recorded.  The DRF verdict
   is deterministic; when a program does race, the particular witness
   interleaving may differ from the sequential engine's (and between
   parallel runs), as any adjacent race is a valid witness. *)
let par_find_adjacent_race ~pool ~max_states ~local ?stats vol sys =
  let s = sink stats in
  let ctx = make_ctx ~striped:true ~stats:s Sc sys in
  let nw = Par.Pool.size pool in
  let wstats = Array.init nw (fun _ -> create_stats ()) in
  let wctx = Array.map (for_worker ctx) wstats in
  track_wstats wstats;
  Fun.protect ~finally:(fun () -> untrack_wstats wstats) @@ fun () ->
  let enabled_lbls : (int * (Thread_id.t * Action.t) list) list array =
    Array.make nw []
  in
  let expand w id st =
    let succs = enabled wctx.(w) st in
    if Option.is_some local then
      enabled_lbls.(w) <-
        (id, List.map (fun (tid, a, _) -> (tid, a)) succs) :: enabled_lbls.(w);
    List.map
      (fun (tid, a, succ) -> ((tid, a), succ ()))
      (select ~local wstats.(w) succs)
  in
  let n, succ, parent, id0 =
    par_discover ~pool ~max_states ~wstats ~expand
      ~intern:(fun st -> state_id ctx st)
      (initial ctx)
  in
  record_arena ctx 0;
  join_wstats ~into:s wstats;
  s.domains <- max s.domains nw;
  (* [iter_enabled f v] applies [f] to every enabled label of [v]. *)
  let iter_enabled =
    match local with
    | None -> fun f v -> List.iter (fun (lbl, _) -> f lbl) succ.(v)
    | Some _ ->
        let full = Array.make n [] in
        Array.iter
          (List.iter (fun (id, lbls) -> full.(id) <- lbls))
          enabled_lbls;
        fun f v -> List.iter f full.(v)
  in
  let path_to u =
    let rec up id acc =
      if id = id0 then acc
      else
        match parent.(id) with
        | Some (p, (tid, a)) -> up p (Interleaving.pair tid a :: acc)
        | None -> acc
    in
    up u []
  in
  let exception Found of Interleaving.t in
  try
    for u = 0 to n - 1 do
      List.iter
        (fun ((tid, a), v) ->
          iter_enabled
            (fun (tid', b) ->
              if
                (not (Thread_id.equal tid tid'))
                && Action.conflicting vol a b
              then
                raise
                  (Found
                     (path_to u
                     @ [
                         Interleaving.pair tid a; Interleaving.pair tid' b;
                       ])))
            v)
        succ.(u)
    done;
    None
  with Found i -> Some i

let find_adjacent_race ?(max_states = default_max_states) ?local ?stats ?jobs
    ?pool vol sys =
  observed "explorer.race_search" stats (fun engine stats ->
      granular ?jobs ?pool ~max_states ~engine ~stats
        ~seq:(fun max_states stats ->
          seq_find_adjacent_race ~max_states ~local ?stats vol sys)
        ~par:(fun pool ->
          par_find_adjacent_race ~pool ~max_states ~local ?stats vol sys)
        ())

let is_drf ?max_states ?stats ?jobs ?pool vol sys =
  Option.is_none (find_adjacent_race ?max_states ?stats ?jobs ?pool vol sys)

let find_deadlock ?(max_states = default_max_states) ?stats sys =
  observed "explorer.deadlock" stats (fun _ stats ->
      let s = sink stats in
      let ctx = make_ctx ~striped:false ~stats:s Sc sys in
      let visited : (int, unit) Hashtbl.t = Hashtbl.create 997 in
      let count = ref 0 in
      let exception Found of Interleaving.t in
      let rec go st rev_path depth =
        let id, fresh = state_id ctx st in
        if fresh then begin
          Hashtbl.add visited id ();
          incr count;
          s.states <- s.states + 1;
          if !count > max_states then raise (Too_many_states !count);
          if depth > s.peak_frontier then s.peak_frontier <- depth;
          match enabled ctx st with
          | [] ->
              let blocked =
                Array.exists2
                  (fun kid ts -> ctx.steps kid ts <> [])
                  st.tkeys st.threads
              in
              if blocked then raise (Found (List.rev rev_path))
          | succs ->
              List.iter
                (fun (tid, a, succ) ->
                  s.edges <- s.edges + 1;
                  go (succ ())
                    (Interleaving.pair tid a :: rev_path)
                    (depth + 1))
                succs
        end
      in
      try
        go (initial ctx) [] 1;
        None
      with Found i -> Some i)

(* ------------------------------------------------------------------ *)
(* Randomised sampling                                                 *)
(* ------------------------------------------------------------------ *)

let sample_runs ?(max_actions = 10_000) ?stats ~seed ~runs sys =
  let s = sink stats in
  let ctx = make_ctx ~striped:false ~stats:s Sc sys in
  Seq.init runs (fun run ->
      (* one generator per run, so the stream is re-evaluable and a
         consumer may stop after any prefix without changing the rest *)
      let rng = Random.State.make [| seed; run |] in
      let rec go st rev_beh n =
        if n >= max_actions then List.rev rev_beh
        else
          match enabled ctx st with
          | [] -> List.rev rev_beh
          | succs ->
              let _, a, succ =
                List.nth succs (Random.State.int rng (List.length succs))
              in
              s.edges <- s.edges + 1;
              let rev_beh =
                match a with
                | Action.External v -> v :: rev_beh
                | _ -> rev_beh
              in
              go (succ ()) rev_beh (n + 1)
      in
      go (initial ctx) [] 0)

let sample_behaviours ?max_actions ~seed ~runs ?stats sys =
  observed "explorer.sample" stats (fun _ stats ->
      Seq.fold_left
        (fun acc b ->
          Behaviour.Set.union acc
            (Behaviour.Set.of_list (Behaviour.Set.list_prefixes b)))
        Behaviour.Set.empty
        (sample_runs ?max_actions ?stats ~seed ~runs sys))

(* ------------------------------------------------------------------ *)
(* Always-stealing entry points                                        *)
(* ------------------------------------------------------------------ *)

module Parallel = struct
  let steal ?attrs name stats f =
    observed ?attrs name stats (fun engine stats ->
        engine := Par;
        f stats)

  let behaviours ?(max_states = default_max_states) ?local ?stats ~pool sys =
    steal "explorer.behaviours" stats (fun stats ->
        par_behaviours ~max_states ~local ~stats Sc sys pool)

  let count_states ?(max_states = default_max_states) ?local ?stats ~pool sys
      =
    steal "explorer.count_states" stats (fun stats ->
        par_count_states ~max_states ~local ~stats sys pool)

  let find_adjacent_race ?(max_states = default_max_states) ?local ?stats
      ~pool vol sys =
    steal "explorer.race_search" stats (fun stats ->
        par_find_adjacent_race ~pool ~max_states ~local ?stats vol sys)

  let machine_behaviours ?(max_states = default_max_states) ?stats ~pool
      buffer vol sys =
    let module B = (val buffer : BUFFER) in
    steal ~attrs:(model_attr B.name) "explorer.machine" stats (fun stats ->
        par_behaviours ~max_states ~local:None ~stats
          (Buffered ((module B), vol))
          sys pool)
end
