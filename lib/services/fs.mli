(** An inode filesystem on the simulated disk.

    Directories are files on the same storage as the files they name —
    the arrangement §2.2 calls the natural fit for distributed name
    interpretation: deleting an object and its name is one single-server
    operation. Directory contents are cached in core (write-behind to
    their pages); file data moves through the disk and a buffer cache
    that supports read-ahead.

    A directory entry may be a pointer to a context on another server
    ({!Remote_link}) — the cross-server arrows of Figure 4. *)

module Context = Vnaming.Context
module Reply = Vnaming.Reply

type entry =
  | File_entry of int
  | Dir_entry of int
  | Remote_link of Context.spec

(** What an inode holds depends on its kind: a file its block map, a
    directory its entries and its disk page. *)
type contents

type inode = {
  ino : int;
  kind : [ `File | `Dir ];
  mutable size : int;  (** bytes (files) *)
  contents : contents;
  mutable owner : string;
  mutable writable : bool;
  mutable created : float;
  mutable modified : float;
  mutable parent : int;
  mutable name_in_parent : string;
}

type t

val root_ino : int

(** [create disk engine] makes a filesystem with an empty root. *)
val create : ?owner:string -> Disk.t -> Vsim.Engine.t -> t

val find : t -> int -> inode option

(** Like {!find} but raises on unknown inodes. *)
val get : t -> int -> inode

val is_dir : t -> int -> bool

(** Forget every buffered page (for cold-read benchmarks). *)
val drop_caches : t -> unit

(** Unallocated pages remaining (a large value on unbounded media). *)
val free_page_count : t -> int

(** {1 Directory operations} *)

val lookup : t -> dir:int -> string -> entry option

(** Entries sorted by name. *)
val entries : t -> dir:int -> (string * entry) list

(** A name a directory can bind: not empty, ["."] or [".."], without
    ['/'], ['\['] or NUL, and at most {!Vnaming.Csname.max_length}
    bytes. *)
val valid_name : string -> bool

val create_file : t -> dir:int -> owner:string -> string -> (int, Reply.code) result
val mkdir : t -> dir:int -> owner:string -> string -> (int, Reply.code) result

(** Add a pointer to a context on another server. *)
val add_remote_link :
  t -> dir:int -> string -> Context.spec -> (unit, Reply.code) result

(** Remove a name and, for files and empty directories, the object
    itself and its disk pages: one atomic single-server operation
    (§2.2). *)
val unlink : t -> dir:int -> string -> (unit, Reply.code) result

val rename :
  t -> dir:int -> string -> new_dir:int -> string -> (unit, Reply.code) result

(** Resolve an absolute slash-separated path (setup/test convenience;
    protocol traffic goes through the CSNH walk). *)
val resolve_path : t -> string -> entry option

(** Full path from the root — the server-local half of inverse name
    mapping (§6). *)
val path_of_ino : t -> int -> string option

(** {1 File data} *)

val block_size : t -> int
val file_blocks : t -> inode -> int

(** Blocking read of one block through the buffer cache. *)
val read_block : t -> ino:int -> block:int -> (bytes, Reply.code) result

(** Queue an asynchronous read into the cache (read-ahead). *)
val prefetch_block : t -> ino:int -> block:int -> unit

(** Write one block. [behind] skips waiting for the platter (setup
    paths; the default charges the caller). *)
val write_block :
  ?behind:bool -> t -> ino:int -> block:int -> bytes -> (int, Reply.code) result

val truncate : t -> ino:int -> (unit, Reply.code) result

(** Change a file's size: shrinking frees whole pages beyond the new
    end; growing leaves a sparse (zero-read) tail. *)
val set_size : t -> ino:int -> int -> (unit, Reply.code) result

(** Store a whole byte image, page by page. [behind] defaults to [true]
    (scenario setup outside any fiber). *)
val write_file : ?behind:bool -> t -> ino:int -> bytes -> (unit, Reply.code) result

(** Read a whole file through the cache. *)
val read_file : t -> ino:int -> (bytes, Reply.code) result

(** {1 Descriptions} *)

val describe_entry : t -> name:string -> entry -> Vnaming.Descriptor.t
val describe_ino : t -> int -> Vnaming.Descriptor.t option

(** Apply a §5.5 modification record: writable bit and owner. An owner
    longer than {!Vnaming.Csname.max_length} bytes is an illegal name. *)
val modify_entry :
  t -> entry -> Vnaming.Descriptor.t -> (unit, Reply.code) result
