(* The one instance table: a server's open object instances, its open
   context listings, and the I/O protocol over them. Context directories
   are "logically files" (§5.6), so every server's directory listings go
   through here beside its own objects (files, terminals, windows,
   printer jobs, mailboxes, TCP connections). The server says once, in
   its kind, how its own instances are read, written, described and
   released; a listing is the table's own kind, the same at every
   server. The table owns the ids, the block slicing and the replies. *)

type block = Image of bytes | Data of bytes | Refused of Reply.code

type ('s, 'a) kind = {
  block_size : int;
  read : 's -> 'a -> block:int -> block;
  write : 's -> 'a -> block:int -> bytes -> (int, Reply.code) result;
  describe : 's -> int -> 'a -> (Descriptor.t, Reply.code) result;
  release : 's -> 'a -> unit;
}

type nothing = |

let listings_only =
  {
    block_size = 512;
    read = (fun _ (n : nothing) ~block:_ -> match n with _ -> .);
    write = (fun _ (n : nothing) ~block:_ _ -> match n with _ -> .);
    describe = (fun _ _ (n : nothing) -> match n with _ -> .);
    release = (fun _ (n : nothing) -> match n with _ -> .);
  }

type listing = { directory : string; owner : string; image : bytes }
type 'a instance = Listing of listing | Object of 'a

(* The part of a table its kind does not shape: the id counter and the
   open listings. *)
type listings = {
  listing_block_size : int;
  mutable next_id : int;
  by_id : (int, listing) Hashtbl.t;
}

type ('s, 'a) t = {
  kind : ('s, 'a) kind;
  objects : (int, 'a) Hashtbl.t;
  listings : listings;
}

let create kind =
  {
    kind;
    objects = Hashtbl.create 8;
    listings =
      {
        listing_block_size = kind.block_size;
        next_id = 1;
        by_id = Hashtbl.create 4;
      };
  }

let listings t = t.listings
let listing t id = Hashtbl.find_opt t.listings.by_id id

let count t =
  Hashtbl.length t.objects + Hashtbl.length t.listings.by_id

let find t id =
  match Hashtbl.find_opt t.objects id with
  | Some a -> Some (Object a)
  | None -> Option.map (fun l -> Listing l) (listing t id)

(* Ids maximize time before reuse (§4.3) by increasing monotonically. *)
let next_id l =
  let id = l.next_id in
  l.next_id <- id + 1;
  id

let reserve t = next_id t.listings

let opened ~instance ~file_size ~block_size =
  Vmsg.ok ~payload:(Vmsg.P_instance { instance; file_size; block_size }) ()

let add t inst ~file_size =
  let instance = next_id t.listings in
  Hashtbl.replace t.objects instance inst;
  opened ~instance ~file_size ~block_size:t.kind.block_size

let add_listing l ~directory ~owner image =
  let instance = next_id l in
  Hashtbl.replace l.by_id instance { directory; owner; image };
  opened ~instance ~file_size:(Bytes.length image)
    ~block_size:l.listing_block_size

let data bytes = Vmsg.ok ~payload:(Vmsg.P_data bytes) ()

let cut t image ~block =
  let bs = t.kind.block_size in
  let off = block * bs in
  if block < 0 then Vmsg.reply Reply.Invalid_instance
  else if off >= Bytes.length image then Vmsg.reply Reply.End_of_file
  else data (Bytes.sub image off (min bs (Bytes.length image - off)))

(* Each operation looks the id up among the server's own instances
   first, then among the listings. *)
let read t s ~instance ~block =
  match Hashtbl.find t.objects instance with
  | inst -> (
      match t.kind.read s inst ~block with
      | Image image -> cut t image ~block
      | Data bytes -> data bytes
      | Refused code -> Vmsg.reply code)
  | exception Not_found -> (
      match listing t instance with
      | Some l -> cut t l.image ~block
      | None -> Vmsg.reply Reply.Invalid_instance)

(* A listing is read-only. *)
let write t s ~instance ~block bytes =
  match Hashtbl.find t.objects instance with
  | inst -> (
      match t.kind.write s inst ~block bytes with
      | Ok n -> Vmsg.ok ~payload:(Vmsg.P_count n) ()
      | Error code -> Vmsg.reply code)
  | exception Not_found -> (
      match listing t instance with
      | Some _ -> Vmsg.reply Reply.No_permission
      | None -> Vmsg.reply Reply.Invalid_instance)

(* A listing is described as the context it lists, sized in bytes. *)
let query t s instance =
  match Hashtbl.find t.objects instance with
  | inst -> (
      match t.kind.describe s instance inst with
      | Ok d -> Vmsg.ok ~payload:(Vmsg.P_descriptor d) ()
      | Error code -> Vmsg.reply code)
  | exception Not_found -> (
      match listing t instance with
      | Some { directory; owner; image } ->
          Vmsg.ok
            ~payload:
              (Vmsg.P_descriptor
                 (Descriptor.make ~obj_type:Descriptor.Directory
                    ~size:(Bytes.length image) ~owner ~instance directory))
            ()
      | None -> Vmsg.reply Reply.Invalid_instance)

let release t s instance =
  match Hashtbl.find t.objects instance with
  | inst ->
      Hashtbl.remove t.objects instance;
      t.kind.release s inst;
      Vmsg.ok ()
  | exception Not_found -> (
      match listing t instance with
      | Some _ ->
          Hashtbl.remove t.listings.by_id instance;
          Vmsg.ok ()
      | None -> Vmsg.reply Reply.Invalid_instance)

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
