(* Open addressing with linear probing over two flat arrays. A key's
   home slot is the top bits of its Fibonacci hash (the key times
   2^63/φ, wrapping like every int product), so keys that differ only
   in their high bits, as a serving key's senders do, still spread. A
   free slot's key is [free]; the table is never more than half full,
   so every probe meets one. *)

let free = -1
let initial_bits = 3

(* 2^63/φ, made odd. *)
let golden = 0x4F1B_BCDC_BFA5_3E0B

type 'a t = {
  blank : 'a;
  mutable keys : int array;
  mutable values : 'a array;
  mutable bits : int;  (* the slot count is [1 lsl bits] *)
  mutable length : int;
}

let create ~blank =
  let n = 1 lsl initial_bits in
  {
    blank;
    keys = Array.make n free;
    values = Array.make n blank;
    bits = initial_bits;
    length = 0;
  }

let length t = t.length
let hash bits key = (key * golden) lsr (63 - bits)
let home t key = hash t.bits key

let home_slot ~slots key =
  let rec bits n = if n <= 1 then 0 else 1 + bits (n lsr 1) in
  hash (bits slots) key

(* The slot that holds [key], or else the free slot that ends its
   run. *)
let rec seek keys mask key i =
  let k = keys.(i) in
  if k = key || k = free then i else seek keys mask key ((i + 1) land mask)

let slot t key = seek t.keys (Array.length t.keys - 1) key (home t key)

let find t key =
  let i = slot t key in
  if key < 0 || t.keys.(i) <> key then raise_notrace Not_found;
  t.values.(i)

(* Bind a key known to be absent, with a free slot to spare. *)
let add t key v =
  let i = slot t key in
  t.keys.(i) <- key;
  t.values.(i) <- v;
  t.length <- t.length + 1

let grow t =
  let keys = t.keys and values = t.values in
  t.bits <- t.bits + 1;
  t.keys <- Array.make (1 lsl t.bits) free;
  t.values <- Array.make (1 lsl t.bits) t.blank;
  t.length <- 0;
  Array.iteri (fun i k -> if k <> free then add t k values.(i)) keys

let replace t key v =
  if key < 0 then invalid_arg "Int_table.replace: negative key";
  let i = slot t key in
  if t.keys.(i) = key then t.values.(i) <- v
  else if 2 * (t.length + 1) <= Array.length t.keys then begin
    t.keys.(i) <- key;
    t.values.(i) <- v;
    t.length <- t.length + 1
  end
  else begin
    grow t;
    add t key v
  end

(* Close the hole at [hole]: each later entry of its run moves back
   into it unless its home lies cyclically in (hole, j], where a probe
   from its home would still reach it. *)
let rec shift t mask hole j =
  let k = t.keys.(j) in
  if k = free then begin
    t.keys.(hole) <- free;
    t.values.(hole) <- t.blank
  end
  else
    let h = home t k in
    let stays = if hole <= j then hole < h && h <= j else hole < h || h <= j in
    if stays then shift t mask hole ((j + 1) land mask)
    else begin
      t.keys.(hole) <- k;
      t.values.(hole) <- t.values.(j);
      shift t mask j ((j + 1) land mask)
    end

let remove t key =
  let i = slot t key in
  if key >= 0 && t.keys.(i) = key then begin
    t.length <- t.length - 1;
    let mask = Array.length t.keys - 1 in
    shift t mask i ((i + 1) land mask)
  end

let fold f t init =
  let acc = ref init in
  Array.iteri
    (fun i k -> if k <> free then acc := f k t.values.(i) !acc)
    t.keys;
  !acc

let reset t =
  let n = 1 lsl initial_bits in
  t.keys <- Array.make n free;
  t.values <- Array.make n t.blank;
  t.bits <- initial_bits;
  t.length <- 0
