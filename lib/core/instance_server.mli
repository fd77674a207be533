(** The one instance table: a server's open object instances, its open
    context listings, and the I/O protocol that reads, writes, describes
    and releases them.

    Every object a server implements, and every context directory
    ("logically files", §5.6), is read through the same protocol. A
    server creates one table and says once, in a {!kind}, how an
    instance of its own kind (['a]) is read, written, described and
    released; the table keeps the instances under ids from its own
    counter, cuts blocks out of byte images, and answers ReadInstance,
    WriteInstance, QueryInstance and ReleaseInstance. The kind's
    functions get the server's state (['s]) at each request, so a kind
    is one value per server, not a closure per instance.

    A context listing is the table's one built-in kind of instance, the
    same at every server: a read-only image of the context's description
    records, cut in the table's block size, whose QueryInstance record
    is the context's own (a directory with the context's name and owner,
    the image's byte size and the instance id). *)

(** One block of an instance, as its kind finds it. *)
type block =
  | Image of bytes  (** the instance's whole image: the table cuts the block *)
  | Data of bytes  (** the block itself, read by the server *)
  | Refused of Reply.code

type ('s, 'a) kind = {
  block_size : int;
  read : 's -> 'a -> block:int -> block;
  write : 's -> 'a -> block:int -> bytes -> (int, Reply.code) result;
      (** the byte count stored; called only for an open instance, since
          the table answers [Invalid_instance] for any other id *)
  describe : 's -> int -> 'a -> (Descriptor.t, Reply.code) result;
      (** QueryInstance, given the instance id *)
  release : 's -> 'a -> unit;  (** after the instance leaves the table *)
}

type nothing = |

(** The kind of a server whose only instances are its context listings;
    block size 512. *)
val listings_only : ('s, nothing) kind

type ('s, 'a) t

val create : ('s, 'a) kind -> ('s, 'a) t

(** Instances currently open, listings included. *)
val count : ('s, 'a) t -> int

(** An open context listing: the directory it lists, that context's
    owner, and its image. *)
type listing = { directory : string; owner : string; image : bytes }

type 'a instance = Listing of listing | Object of 'a

val find : ('s, 'a) t -> int -> 'a instance option

(** The next id, for a temporary object that carries an instance id
    (§4.3) without being an open instance. Ids increase monotonically,
    maximizing time before reuse. *)
val reserve : ('s, 'a) t -> int

(** Open an instance under the next id; the Open reply, carrying
    [file_size] and the kind's block size. *)
val add : ('s, 'a) t -> 'a -> file_size:int -> Vmsg.t

(** Where a table's context listings open, whatever the table's kind:
    what a context needs to open its own listing. *)
type listings

val listings : ('s, 'a) t -> listings

(** [add_listing l ~directory ~owner image] opens a listing of the
    context named [directory], owned by [owner], whose description
    records encode to [image]; the Open reply, carrying the image's
    size and the table's block size. *)
val add_listing : listings -> directory:string -> owner:string -> bytes -> Vmsg.t

(** Serve the I/O-protocol operations; [None] for requests that are not
    instance operations. *)
val handle_io : ('s, 'a) t -> 's -> Vmsg.t -> Vmsg.t option
