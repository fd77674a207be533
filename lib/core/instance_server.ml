(* The one instance table: a server's open object instances and the I/O
   protocol over them. Context directories are "logically files" (§5.6),
   so every server's directory listings go through here beside its own
   objects (files, terminals, windows, printer jobs, mailboxes, TCP
   connections). The server says once, in its kind, how its instances
   are read, written, described and released; the table owns the ids,
   the block slicing and the replies. *)

type block = Image of bytes | Data of bytes | Refused of Reply.code

type ('s, 'a) kind = {
  block_size : int;
  read : 's -> 'a -> block:int -> block;
  write : 's -> 'a -> block:int -> bytes -> (int, Reply.code) result;
  describe : 's -> int -> 'a -> (Descriptor.t, Reply.code) result;
  release : 's -> 'a -> unit;
}

let images ~describe =
  {
    block_size = 512;
    read = (fun _ image ~block:_ -> Image image);
    write = (fun _ _ ~block:_ _ -> Error Reply.No_permission);
    describe = (fun s _ _ -> Ok (describe s));
    release = (fun _ _ -> ());
  }

type ('s, 'a) t = {
  kind : ('s, 'a) kind;
  mutable next_id : int;
  table : (int, 'a) Hashtbl.t;
}

let create kind = { kind; next_id = 1; table = Hashtbl.create 8 }
let count t = Hashtbl.length t.table
let find t id = Hashtbl.find_opt t.table id

(* Ids maximize time before reuse (§4.3) by increasing monotonically. *)
let reserve t =
  let id = t.next_id in
  t.next_id <- id + 1;
  id

let add t inst ~file_size =
  let instance = reserve t in
  Hashtbl.replace t.table instance inst;
  Vmsg.ok
    ~payload:
      (Vmsg.P_instance { instance; file_size; block_size = t.kind.block_size })
    ()

let data bytes =
  Vmsg.ok ~extra_bytes:(Bytes.length bytes) ~payload:(Vmsg.P_data bytes) ()

let read t s ~instance ~block =
  match Hashtbl.find t.table instance with
  | exception Not_found -> Vmsg.reply Reply.Invalid_instance
  | inst -> (
      match t.kind.read s inst ~block with
      | Image image ->
          let bs = t.kind.block_size in
          let off = block * bs in
          if block < 0 then Vmsg.reply Reply.Invalid_instance
          else if off >= Bytes.length image then Vmsg.reply Reply.End_of_file
          else data (Bytes.sub image off (min bs (Bytes.length image - off)))
      | Data bytes -> data bytes
      | Refused code -> Vmsg.reply code)

let write t s ~instance ~block bytes =
  match Hashtbl.find t.table instance with
  | exception Not_found -> Vmsg.reply Reply.Invalid_instance
  | inst -> (
      match t.kind.write s inst ~block bytes with
      | Ok n -> Vmsg.ok ~payload:(Vmsg.P_count n) ()
      | Error code -> Vmsg.reply code)

let query t s instance =
  match Hashtbl.find t.table instance with
  | exception Not_found -> Vmsg.reply Reply.Invalid_instance
  | inst -> (
      match t.kind.describe s instance inst with
      | Ok d -> Vmsg.ok ~payload:(Vmsg.P_descriptor d) ()
      | Error code -> Vmsg.reply code)

let release t s instance =
  match Hashtbl.find t.table instance with
  | exception Not_found -> Vmsg.reply Reply.Invalid_instance
  | inst ->
      Hashtbl.remove t.table instance;
      t.kind.release s inst;
      Vmsg.ok ()

let handle_io t s (msg : Vmsg.t) =
  let open Vmsg in
  match msg.payload with
  | P_read { instance; block } when msg.code = Op.read_instance ->
      Some (read t s ~instance ~block)
  | P_write { instance; block; data } when msg.code = Op.write_instance ->
      Some (write t s ~instance ~block data)
  | P_instance_arg instance when msg.code = Op.query_instance ->
      Some (query t s instance)
  | P_instance_arg instance when msg.code = Op.release_instance ->
      Some (release t s instance)
  | _ -> None
