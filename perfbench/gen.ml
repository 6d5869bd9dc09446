(* Programs for the many-threads workload.

   Every thread but a reader does thread-private work that the default
   pipeline rewrites (a dead move or an overwritten store, and a read
   after a write) and prints one value.  Private work makes the
   interleavings explode while each thread's traceset stays small, so
   past four threads only the refine rung can decide the pipeline's
   validations.  Shared state comes in three flavours, and each
   program's verdicts follow from how it is built, not from running the
   program under test:

   - [Locked]: the shared location is only written under one monitor —
     DRF, and the static lockset analysis can certify it;
   - [Message_passing]: one thread publishes plain data through a
     volatile flag that a reader checks before reading the data — DRF,
     but the lockset analysis cannot see it, so the DRF check enumerates;
   - [Racy]: one thread writes a plain location that a reader reads
     without a lock — racy.

   Thread [i] prints the value it stored to its private [a<i>] and read
   back; nobody else touches [a<i>], and readers print nothing.  So the
   behaviours are exactly the sequences in which each value occurs at
   most as often as threads print it. *)

type flavor = Locked | Message_passing | Racy

let flavor_name = function
  | Locked -> "locked"
  | Message_passing -> "mp"
  | Racy -> "racy"

type program = {
  name : string;
  source : string;
  drf : bool;
  prints : (int * int) list;  (** value, number of threads printing it *)
  state_bound : int;  (** product over threads of (statements + 1) *)
}

(* One pass: the same sizes and flavours for every seed, so a pass costs
   about the same whatever the seed; the seed picks which threads print
   1 or 2, which carry the overwritten store and which share.  Four
   rounds of 24 shapes make 96 programs, so the tail over a pass's
   programs has a tenth of them beyond it. *)
let rounds = 4

let shapes =
  List.concat
    (List.init rounds (fun _ ->
         List.concat_map
           (fun (n, flavors) -> List.map (fun f -> (n, f)) flavors)
           [
             (4, [ Locked; Message_passing; Racy; Locked;
                   Message_passing; Racy; Locked; Message_passing ]);
             (5, [ Locked; Message_passing; Racy; Locked ]);
             (6, [ Message_passing; Racy; Locked; Message_passing ]);
             (7, [ Racy; Locked; Message_passing; Racy ]);
             (8, [ Locked; Message_passing; Racy; Locked ]);
           ]))

(* A thread's private work, ending with the value it prints in r4.
   One load per thread keeps its traceset small; both shapes have four
   statements, so a program's size does not depend on the seed. *)
let private_work ~dead_store i v =
  let a = Printf.sprintf "a%d" i in
  let store = Printf.sprintf "%s := r3;" a in
  (if dead_store then
     (* an overwritten store, then a read after the write *)
     [ Printf.sprintf "r3 := %d;" v; store; store ]
   else
     (* a dead move, then a read after a write *)
     [ "r2 := 1;"; Printf.sprintf "r3 := %d;" v; store ])
  @ [ Printf.sprintf "r4 := %s;" a ]

let generate rng idx (threads, flavor) =
  (* the two threads that share the flag or the racy location *)
  let p = Random.State.int rng threads in
  let q = (p + 1 + Random.State.int rng (threads - 1)) mod threads in
  (* half the threads print 1 and half 2, and half of them carry the
     dead store, whichever threads the seed picks *)
  let values = Array.init threads (fun i -> 1 + (i mod 2)) in
  let dead = Array.init threads (fun i -> i mod 4 >= 2) in
  let shuffle a =
    for i = Array.length a - 1 downto 1 do
      let j = Random.State.int rng (i + 1) in
      let t = a.(i) in
      a.(i) <- a.(j);
      a.(j) <- t
    done
  in
  shuffle values;
  shuffle dead;
  let body i =
    match flavor with
    | (Message_passing | Racy) when i = q ->
        (* the reader prints nothing and has no private work *)
        let read =
          if flavor = Racy then [ "r8 := z;" ]
          else [ "r6 := f;"; "if (r6 == 1) { r7 := d; } else { skip; }" ]
        in
        (read, None)
    | _ ->
        let v = values.(i) in
        let work = private_work ~dead_store:dead.(i) i v in
        let shared =
          match flavor with
          | Message_passing when i = p ->
              [ "rd := 1;"; "d := rd;"; "rf := 1;"; "f := rf;" ]
          | Racy when i = p -> [ "rz := 1;"; "z := rz;" ]
          | _ -> [ "lock m;"; "s := r4;"; "unlock m;" ]
        in
        (work @ shared @ [ "print r4;" ], Some v)
  in
  let bodies = List.init threads body in
  let source =
    (if flavor = Message_passing then "volatile f;\n" else "")
    ^ String.concat ""
        (List.map
           (fun (stmts, _) ->
             "thread {\n  " ^ String.concat "\n  " stmts ^ "\n}\n")
           bodies)
  in
  let printed = List.filter_map snd bodies in
  {
    name = Printf.sprintf "t%d-%s-%d" threads (flavor_name flavor) idx;
    source;
    drf = flavor <> Racy;
    prints =
      List.filter_map
        (fun v ->
          match List.length (List.filter (( = ) v) printed) with
          | 0 -> None
          | n -> Some (v, n))
        [ 0; 1; 2 ];
    state_bound =
      List.fold_left
        (fun n (stmts, _) -> n * (List.length stmts + 1))
        1 bodies;
  }

let programs seed =
  let rng = Random.State.make [| seed; 0x6d74 |] in
  List.mapi (generate rng) shapes

(* The expected behaviour count: the sequences in which each value
   occurs at most as often as threads print it.  Counted by extending
   sequences one value at a time over the vector of remaining counts. *)
let expected_behaviours p =
  let rec count remaining =
    1
    + List.fold_left
        (fun acc (i, n) ->
          if n = 0 then acc
          else
            acc
            + count (List.mapi (fun j m -> if j = i then m - 1 else m) remaining))
        0
        (List.mapi (fun i n -> (i, n)) remaining)
  in
  count (List.map snd p.prints)

(* Exactly the reference set: every behaviour stays within the counts,
   and there are as many behaviours as the counts allow. *)
let behaviours_match p (bs : Safeopt_exec.Behaviour.Set.t) =
  let within b =
    List.for_all (fun v -> List.mem_assoc v p.prints) b
    && List.for_all
         (fun (v, n) -> List.length (List.filter (( = ) v) b) <= n)
         p.prints
  in
  Safeopt_exec.Behaviour.Set.for_all within bs
  && Safeopt_exec.Behaviour.Set.cardinal bs = expected_behaviours p
