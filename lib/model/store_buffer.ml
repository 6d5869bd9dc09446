open Safeopt_trace
open Safeopt_exec
open Safeopt_lang

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

(* Drop the last (oldest) element of a newest-first list. *)
let drop_oldest l = List.filteri (fun i _ -> i < List.length l - 1) l

module Tso_buffer = struct
  type t = (Location.t * Value.t) list (* newest first *)

  let name = "tso"
  let empty = []
  let is_empty b = b = []
  let push l v b = (l, v) :: b

  let forward b l =
    Option.map snd (List.find_opt (fun (l', _) -> Location.equal l l') b)

  let drains = function
    | [] -> []
    | b -> (
        match List.rev b with
        | oldest :: _ -> [ (oldest, drop_oldest b) ]
        | [] -> [])

  let digest intern b =
    List.concat_map (fun (l, v) -> [ intern l; v ]) b
end

module Pso_buffer = struct
  type t = Value.t list Location.Map.t (* newest first per location *)

  let name = "pso"
  let empty = Location.Map.empty
  let is_empty b = Location.Map.for_all (fun _ vs -> vs = []) b

  let push l v b =
    Location.Map.add l (v :: Option.value ~default:[] (Location.Map.find_opt l b)) b

  let forward b l =
    match Location.Map.find_opt l b with Some (v :: _) -> Some v | _ -> None

  let drains b =
    Location.Map.fold
      (fun l vs acc ->
        match List.rev vs with
        | [] -> acc
        | oldest :: _ ->
            let vs' = drop_oldest vs in
            let b' =
              if vs' = [] then Location.Map.remove l b
              else Location.Map.add l vs' b
            in
            ((l, oldest), b') :: acc)
      b []

  let digest intern b =
    Location.Map.fold
      (fun l vs acc -> vs @ (List.length vs :: intern l :: acc))
      b []
end

module type MACHINE = sig
  val name : string

  type 'ts state

  val graph : Location.Volatile.t -> 'ts System.t -> 'ts state Explorer.graph

  val behaviours :
    ?max_states:int ->
    ?stats:Explorer.stats ->
    ?jobs:int ->
    ?pool:Par.Pool.t ->
    Location.Volatile.t ->
    'ts System.t ->
    Behaviour.Set.t

  val program_behaviours :
    ?fuel:int ->
    ?max_states:int ->
    ?stats:Explorer.stats ->
    ?jobs:int ->
    ?pool:Par.Pool.t ->
    Ast.program ->
    Behaviour.Set.t
end

module Make (B : BUFFER) : MACHINE = struct
  let name = B.name

  (* [tkeys.(i)] is the interned key of thread [i]'s state, kept beside
     it so that a transition re-keys only the thread that stepped (the
     same scheme as [Explorer]'s scheduler states). *)
  type 'ts state = {
    threads : 'ts array;
    tkeys : int array;
    buffers : B.t array;
    mem : Value.t Location.Map.t;
    locks : (Thread_id.t * int) Monitor.Map.t;
  }

  let set_thread ~tkey sys st tid ts' =
    let threads = Array.copy st.threads in
    threads.(tid) <- ts';
    let tkeys = Array.copy st.tkeys in
    tkeys.(tid) <- Par.Intern.id tkey (sys.System.key ts');
    { st with threads; tkeys }

  (* Transitions: Some action for thread steps, None for buffer drains
     (invisible). *)
  let transitions ~tkey vol sys st =
    let out = ref [] in
    (* Drain steps: any buffered write the discipline allows out. *)
    Array.iteri
      (fun tid buf ->
        List.iter
          (fun ((l, v), buf') ->
            let buffers = Array.copy st.buffers in
            buffers.(tid) <- buf';
            out :=
              (None, { st with buffers; mem = Location.Map.add l v st.mem })
              :: !out)
          (B.drains buf))
      st.buffers;
    (* Thread steps. *)
    Array.iteri
      (fun tid ts ->
        let buffer_empty = B.is_empty st.buffers.(tid) in
        List.iter
          (fun step ->
            match step with
            | System.Read (l, k) -> (
                (* Store-to-load forwarding: the thread's own newest
                   pending write to [l] wins over memory. *)
                let v =
                  match B.forward st.buffers.(tid) l with
                  | Some v -> v
                  | None ->
                      Option.value ~default:Value.default
                        (Location.Map.find_opt l st.mem)
                in
                match k v with
                | Some ts' ->
                    out :=
                      ( Some (Action.Read (l, v)),
                        set_thread ~tkey sys st tid ts' )
                      :: !out
                | None -> ())
            | System.Rmw (l, k) ->
                (* An RMW fences (x86 LOCK prefix): it requires the
                   thread's own buffered writes to have drained and
                   reads and writes memory directly, so it can neither
                   see nor leave behind a buffered value. *)
                if buffer_empty then
                  let v =
                    Option.value ~default:Value.default
                      (Location.Map.find_opt l st.mem)
                  in
                  List.iter
                    (fun (w, ts') ->
                      let st' =
                        { st with mem = Location.Map.add l w st.mem }
                      in
                      out :=
                        ( Some (Action.Rmw (l, v, w)),
                          set_thread ~tkey sys st' tid ts' )
                        :: !out)
                    (k v)
            | System.Emit (a, ts') -> (
                let commit st' =
                  out := (Some a, set_thread ~tkey sys st' tid ts') :: !out
                in
                match a with
                | Action.Read _ ->
                    invalid_arg
                      (String.capitalize_ascii B.name
                      ^ ": reads must use System.Read steps")
                | Action.Rmw _ ->
                    invalid_arg
                      (String.capitalize_ascii B.name
                      ^ ": RMWs must use System.Rmw steps")
                | Action.Write (l, v) ->
                    if Location.Volatile.mem vol l then begin
                      (* Fencing write: needs empty buffers, goes
                         straight to memory. *)
                      if buffer_empty then
                        commit { st with mem = Location.Map.add l v st.mem }
                    end
                    else begin
                      let buffers = Array.copy st.buffers in
                      buffers.(tid) <- B.push l v st.buffers.(tid);
                      commit { st with buffers }
                    end
                | Action.Lock m ->
                    if buffer_empty then (
                      match Monitor.Map.find_opt m st.locks with
                      | None ->
                          commit
                            {
                              st with
                              locks = Monitor.Map.add m (tid, 1) st.locks;
                            }
                      | Some (owner, d) when Thread_id.equal owner tid ->
                          commit
                            {
                              st with
                              locks = Monitor.Map.add m (tid, d + 1) st.locks;
                            }
                      | Some _ -> ())
                | Action.Unlock m ->
                    if buffer_empty then (
                      match Monitor.Map.find_opt m st.locks with
                      | Some (owner, d) when Thread_id.equal owner tid ->
                          let locks =
                            if d = 1 then Monitor.Map.remove m st.locks
                            else Monitor.Map.add m (tid, d - 1) st.locks
                          in
                          commit { st with locks }
                      | _ -> ())
                | Action.External _ | Action.Start _ -> commit st))
          (sys.System.steps ts))
      st.threads;
    List.rev !out

  (* Length-prefixed injective int encoding of a machine state; thread
     keys, locations and monitors are interned per [behaviours] call.
     The interning tables are the sharded thread-safe ones because
     [Explorer.graph_behaviours] may call the digest and the
     transitions from several worker domains at once under
     [jobs]/[pool]. *)
  let digest ~lkey ~mkey st =
    let intern = Par.Intern.id in
    let acc = ref [] in
    let push x = acc := x :: !acc in
    Monitor.Map.iter
      (fun m (o, d) ->
        push (intern mkey m);
        push o;
        push d)
      st.locks;
    push (Monitor.Map.cardinal st.locks);
    Location.Map.iter
      (fun l v ->
        push (intern lkey l);
        push v)
      st.mem;
    push (Location.Map.cardinal st.mem);
    Array.iter
      (fun buf ->
        let enc = B.digest (intern lkey) buf in
        List.iter push enc;
        push (List.length enc))
      st.buffers;
    Array.iter push st.tkeys;
    !acc

  let graph vol sys =
    let tkey = Par.Intern.create () in
    let lkey = Par.Intern.create () in
    let mkey = Par.Intern.create () in
    let threads = Array.of_list sys.System.initial in
    {
      Explorer.graph_initial =
        {
          threads;
          tkeys =
            Array.map
              (fun ts -> Par.Intern.id tkey (sys.System.key ts))
              threads;
          buffers = Array.make (Array.length threads) B.empty;
          mem = Location.Map.empty;
          locks = Monitor.Map.empty;
        };
      graph_transitions = (fun st -> transitions ~tkey vol sys st);
      graph_digest = (fun st -> digest ~lkey ~mkey st);
    }

  let behaviours ?max_states ?stats ?jobs ?pool vol sys =
    let sp =
      if Safeopt_obs.Tracer.enabled () then
        Safeopt_obs.Tracer.span
          ~attrs:[ ("model", Safeopt_obs.Event.Str B.name) ]
          (B.name ^ ".behaviours")
      else Safeopt_obs.Tracer.none
    in
    Fun.protect
      ~finally:(fun () -> Safeopt_obs.Tracer.close_span sp)
      (fun () ->
        Explorer.graph_behaviours ?max_states ?stats ?jobs ?pool
          (graph vol sys))

  let program_behaviours ?fuel ?max_states ?stats ?jobs ?pool
      (p : Ast.program) =
    behaviours ?max_states ?stats ?jobs ?pool p.Ast.volatile
      (Thread_system.make ?fuel p)
end

module Tso = Make (Tso_buffer)
module Pso = Make (Pso_buffer)
