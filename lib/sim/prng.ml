(* Deterministic splittable PRNG (splitmix64). Every source of
   randomness in a scenario draws from a stream derived from the
   scenario seed, so runs are exactly reproducible and independent
   subsystems (e.g. per-host identifier generators) do not perturb each
   other's sequences.

   The 64-bit state lives in 8 bytes, read and written through the
   unboxed primitives, and the mixing inlines into each draw, since an
   [int64] kept in a record field or returned from a call is boxed:
   [bits], [int] and [bool] allocate nothing, and [float] and
   [exponential] only their boxed result. *)

type t = bytes

external get64 : bytes -> int -> int64 = "%caml_bytes_get64u"
external set64 : bytes -> int -> int64 -> unit = "%caml_bytes_set64u"

let golden_gamma = 0x9E3779B97F4A7C15L

let of_state state =
  let t = Bytes.create 8 in
  set64 t 0 state;
  t

let create ~seed = of_state (Int64.of_int seed)

let[@inline] mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let[@inline] next_int64 t =
  let state = Int64.add (get64 t 0) golden_gamma in
  set64 t 0 state;
  mix state

(* Derive an independent stream; the child's sequence does not overlap
   the parent's for any practical draw count. *)
let split t = of_state (mix (next_int64 t))

let bits t = Int64.to_int (Int64.shift_right_logical (next_int64 t) 2)

let int t bound =
  if bound <= 0 then invalid_arg "Prng.int: bound must be positive";
  bits t mod bound

(* Uniform float in [0, 1). *)
let[@inline] float t =
  let x = Int64.shift_right_logical (next_int64 t) 11 in
  Int64.to_float x /. 9007199254740992.0 (* 2^53 *)

let bool t = Int64.logand (next_int64 t) 1L = 1L

(* Exponential variate with the given mean; used for request
   inter-arrival times in workloads. *)
let exponential t ~mean =
  if mean <= 0.0 then invalid_arg "Prng.exponential: mean must be positive";
  let u = float t in
  -.mean *. log (1.0 -. u)

let pick t = function
  | [] -> invalid_arg "Prng.pick: empty list"
  | xs -> List.nth xs (int t (List.length xs))

let shuffle t xs =
  let a = Array.of_list xs in
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done;
  Array.to_list a
