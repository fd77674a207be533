(** The one instance table: a server's open object instances and the
    I/O protocol that reads, writes, describes and releases them.

    Every object a server implements, and every context directory
    ("logically files", §5.6), is read through the same protocol. A
    server creates one table and says once, in a {!kind}, how an
    instance of its own kind (['a]) is read, written, described and
    released; the table keeps the instances under ids from its own
    counter, cuts blocks out of byte images, and answers ReadInstance,
    WriteInstance, QueryInstance and ReleaseInstance. The kind's
    functions get the server's state (['s]) at each request, so a kind
    is one value per server, not a closure per instance. *)

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

(** Read-only byte images of [block_size] 512: context directories,
    described by [describe] from the server's state. Every write to an
    open image is refused with [No_permission]. *)
val images : describe:('s -> Descriptor.t) -> ('s, bytes) kind

type ('s, 'a) t

val create : ('s, 'a) kind -> ('s, 'a) t

(** Instances currently open. *)
val count : ('s, 'a) t -> int

val find : ('s, 'a) t -> int -> 'a option

(** The next id, for a temporary object that carries an instance id
    (§4.3) without being an open instance. Ids increase monotonically,
    maximizing time before reuse. *)
val reserve : ('s, 'a) t -> int

(** Open an instance under the next id; the Open reply, carrying
    [file_size] and the kind's block size. *)
val add : ('s, 'a) t -> 'a -> file_size:int -> Vmsg.t

(** Serve the I/O-protocol operations; [None] for requests that are not
    instance operations. *)
val handle_io : ('s, 'a) t -> 's -> Vmsg.t -> Vmsg.t option
