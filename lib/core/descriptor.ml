(* Typed object description records (§5.5, Figure 3).

   A description is the record returned by the standard query operation
   and the unit of context-directory reads. Its first field is a type
   tag specifying the format of the rest, so clients can handle objects
   whose type they did not know in advance. *)

type obj_type =
  | File
  | Directory
  | Context_pointer  (** a pointer to a context, possibly on another server *)
  | Prefix_binding  (** an entry in a context prefix server *)
  | Process
  | Terminal
  | Printer_job
  | Mailbox
  | Tcp_connection
  | Device
  | User_account

let obj_type_to_int = function
  | File -> 1
  | Directory -> 2
  | Context_pointer -> 3
  | Prefix_binding -> 4
  | Process -> 5
  | Terminal -> 6
  | Printer_job -> 7
  | Mailbox -> 8
  | Tcp_connection -> 9
  | Device -> 10
  | User_account -> 11

let obj_type_of_int = function
  | 1 -> Some File
  | 2 -> Some Directory
  | 3 -> Some Context_pointer
  | 4 -> Some Prefix_binding
  | 5 -> Some Process
  | 6 -> Some Terminal
  | 7 -> Some Printer_job
  | 8 -> Some Mailbox
  | 9 -> Some Tcp_connection
  | 10 -> Some Device
  | 11 -> Some User_account
  | _ -> None

let obj_type_to_string = function
  | File -> "file"
  | Directory -> "directory"
  | Context_pointer -> "context"
  | Prefix_binding -> "prefix"
  | Process -> "process"
  | Terminal -> "terminal"
  | Printer_job -> "printer-job"
  | Mailbox -> "mailbox"
  | Tcp_connection -> "tcp-connection"
  | Device -> "device"
  | User_account -> "account"

type t = {
  obj_type : obj_type;  (** the tag field: format of the rest *)
  name : string;
  size : int;  (** bytes, entries, or other type-appropriate extent *)
  owner : string;
  created : float;  (** simulated ms since boot *)
  modified : float;
  writable : bool;  (** coarse access control, modifiable via [modify] *)
  instance : int option;  (** object instance id, for temporary objects *)
  attrs : (string * string) list;  (** type-specific attributes *)
}

let make ?(size = 0) ?(owner = "system") ?(created = 0.0) ?(modified = 0.0)
    ?(writable = true) ?instance ?(attrs = []) ~obj_type name =
  { obj_type; name; size; owner; created; modified; writable; instance; attrs }

(* Which fields a [modify] request may change; servers ignore the rest
   (§5.5: "servers are free to ignore changes to any fields which it
   makes no sense to change"). *)
let apply_modification ~current ~requested =
  {
    current with
    writable = requested.writable;
    owner = requested.owner;
    attrs = requested.attrs;
  }

(* --- binary marshalling ---

   Context directories are logically files of description records read
   through the I/O protocol, so descriptions need a byte representation.
   Format: u16 total length, u8 tag, then length-prefixed fields. A
   string or a record too long for its length word is refused, never
   written with a wrong one. *)

let put_u16 b v =
  Buffer.add_char b (Char.chr (v land 0xff));
  Buffer.add_char b (Char.chr ((v lsr 8) land 0xff))

let put_length b n =
  if n > 0xffff then
    invalid_arg "Descriptor.to_bytes: longer than 65,535 bytes";
  put_u16 b n

let put_u32 b v =
  put_u16 b (v land 0xffff);
  put_u16 b ((v lsr 16) land 0xffff)

let put_string b s =
  put_length b (String.length s);
  Buffer.add_string b s

let put_float b f = put_u32 b (int_of_float (f *. 1000.0))

let to_bytes t =
  let body = Buffer.create 64 in
  Buffer.add_char body (Char.chr (obj_type_to_int t.obj_type));
  put_string body t.name;
  put_u32 body t.size;
  put_string body t.owner;
  put_float body t.created;
  put_float body t.modified;
  Buffer.add_char body (if t.writable then '\001' else '\000');
  (match t.instance with
  | None -> put_u16 body 0xffff
  | Some i -> put_u16 body (i land 0xffff));
  put_u16 body (List.length t.attrs);
  List.iter
    (fun (k, v) ->
      put_string body k;
      put_string body v)
    t.attrs;
  let out = Buffer.create (Buffer.length body + 2) in
  put_length out (Buffer.length body + 2);
  Buffer.add_buffer out body;
  Buffer.to_bytes out

(* [Bytes.length (to_bytes t)], without encoding: the length word, the
   tag, the two strings with their lengths, four 32-bit words (size,
   times), the writable byte, the instance and attribute-count words,
   and each attribute's two strings. *)
let encoded_length t =
  List.fold_left
    (fun n (k, v) -> n + 4 + String.length k + String.length v)
    (24 + String.length t.name + String.length t.owner)
    t.attrs

exception Malformed of string

let get_u16 data pos =
  if !pos + 2 > Bytes.length data then raise (Malformed "u16");
  let v =
    Char.code (Bytes.get data !pos)
    lor (Char.code (Bytes.get data (!pos + 1)) lsl 8)
  in
  pos := !pos + 2;
  v

let get_u32 data pos =
  let lo = get_u16 data pos in
  let hi = get_u16 data pos in
  lo lor (hi lsl 16)

let get_string data pos =
  let len = get_u16 data pos in
  if !pos + len > Bytes.length data then raise (Malformed "string");
  let s = Bytes.sub_string data !pos len in
  pos := !pos + len;
  s

let get_float data pos = float_of_int (get_u32 data pos) /. 1000.0

let get_byte data pos =
  if !pos + 1 > Bytes.length data then raise (Malformed "byte");
  let c = Char.code (Bytes.get data !pos) in
  incr pos;
  c

(* [of_bytes data offset] decodes one record, returning it with the
   offset of the next record. *)
let of_bytes data offset =
  let pos = ref offset in
  let total = get_u16 data pos in
  if total < 2 || offset + total > Bytes.length data then
    raise (Malformed "record length");
  let obj_type =
    match obj_type_of_int (get_byte data pos) with
    | Some t -> t
    | None -> raise (Malformed "type tag")
  in
  let name = get_string data pos in
  let size = get_u32 data pos in
  let owner = get_string data pos in
  let created = get_float data pos in
  let modified = get_float data pos in
  let writable = get_byte data pos <> 0 in
  let instance = match get_u16 data pos with 0xffff -> None | i -> Some i in
  let n_attrs = get_u16 data pos in
  let attrs =
    List.init n_attrs (fun _ ->
        let k = get_string data pos in
        let v = get_string data pos in
        (k, v))
  in
  ( { obj_type; name; size; owner; created; modified; writable; instance; attrs },
    offset + total )

(* Decode a whole context-directory image into records. *)
let all_of_bytes data =
  let rec loop offset acc =
    if offset >= Bytes.length data then List.rev acc
    else begin
      let record, next = of_bytes data offset in
      loop next (record :: acc)
    end
  in
  loop 0 []

let directory_to_bytes records =
  let b = Buffer.create 256 in
  List.iter (fun r -> Buffer.add_bytes b (to_bytes r)) records;
  Buffer.to_bytes b

let pp ppf t =
  Fmt.pf ppf "@[<h>%-12s %8d  %-8s %s%s%a@]"
    (obj_type_to_string t.obj_type)
    t.size t.owner t.name
    (if t.writable then "" else " [read-only]")
    (fun ppf attrs ->
      List.iter (fun (k, v) -> Fmt.pf ppf " %s=%s" k v) attrs)
    t.attrs
