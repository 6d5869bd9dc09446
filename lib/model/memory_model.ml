open Safeopt_exec
open Safeopt_lang

type t = Sc | Tso | Pso

let all = [ Sc; Tso; Pso ]
let name = function Sc -> "sc" | Tso -> "tso" | Pso -> "pso"
let pp ppf m = Fmt.string ppf (name m)

let of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "sc" -> Ok Sc
  | "tso" -> Ok Tso
  | "pso" -> Ok Pso
  | other ->
      Error (Printf.sprintf "unknown memory model %S (expected sc, tso or pso)" other)

let equal a b = a = b
let catch_fire = function Sc -> true | Tso | Pso -> false

let describe = function
  | Sc ->
      "sequential consistency (language model: racy programs catch fire, \
       safety is the DRF guarantee)"
  | Tso ->
      "total store order (hardware model: one FIFO store buffer per thread, \
       safety is behaviour inclusion)"
  | Pso ->
      "partial store order (hardware model: per-location store buffers, \
       safety is behaviour inclusion)"

let buffer = function
  | Sc -> None
  | Tso -> Some (module Store_buffer.Tso_buffer : Store_buffer.BUFFER)
  | Pso -> Some (module Store_buffer.Pso_buffer : Store_buffer.BUFFER)

let behaviours ?fuel ?max_states ?stats ?jobs ?pool m (p : Ast.program) =
  match buffer m with
  | None -> Interp.behaviours ?fuel ?max_states ?stats ?jobs ?pool p
  | Some b ->
      Explorer.machine_behaviours ?max_states ?stats ?jobs ?pool b
        p.Ast.volatile
        (Thread_system.make ?fuel p)

let weak_behaviours ?fuel ?max_states ?stats ?jobs ?pool m p =
  let under_m = behaviours ?fuel ?max_states ?stats ?jobs ?pool m p in
  Behaviour.Set.diff under_m
    (behaviours ?fuel ?max_states ?stats ?jobs ?pool Sc p)

let replays ?fuel ?max_states ?jobs ?pool m p b =
  Behaviour.Set.mem b (behaviours ?fuel ?max_states ?jobs ?pool m p)
