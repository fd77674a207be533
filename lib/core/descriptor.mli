(** Typed object description records (paper §5.5, Figure 3).

    A description is what the standard query operation returns and what
    context directories (§5.6) are made of. Its first field is a type
    tag specifying the format of the rest, so a client can handle
    objects whose type it did not know in advance — files, terminals,
    printer jobs, mailboxes and TCP connections all describe themselves
    the same way. *)

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

val obj_type_to_string : obj_type -> string

type t = {
  obj_type : obj_type;  (** the tag field: format of the rest *)
  name : string;
  size : int;  (** bytes, entries, or other type-appropriate extent *)
  owner : string;
  created : float;  (** simulated ms since boot *)
  modified : float;
  writable : bool;  (** coarse access control, changed via modify *)
  instance : int option;  (** object instance id, for temporary objects *)
  attrs : (string * string) list;  (** type-specific attributes *)
}

(** The owner [make] gives a record when it is not told one. *)
val default_owner : string

val make :
  ?size:int ->
  ?owner:string ->
  ?created:float ->
  ?modified:float ->
  ?writable:bool ->
  ?instance:int ->
  ?attrs:(string * string) list ->
  obj_type:obj_type ->
  string ->
  t

(** Merge a modification request into the current description: only the
    modifiable fields (writable, owner, attrs) change; servers ignore
    the rest (§5.5). *)
val apply_modification : current:t -> requested:t -> t

(** Raised by the decoders on corrupt input. *)
exception Malformed of string

(** Marshal one record (length-prefixed binary). Raises
    [Invalid_argument] if a string or the whole record is longer than
    its 16-bit length word can say. *)
val to_bytes : t -> bytes

(** [Bytes.length (to_bytes t)], computed without encoding. *)
val encoded_length : t -> int

(** [fits ~owner ~attrs name]: whether a record of [name], [owner] and
    [attrs] can be written, that is, 24 bytes plus the name, the owner
    and each attribute's two strings and 4 bytes come to at most
    65,535, the limit of the record's 16-bit length word. It allocates
    nothing. Every server holds a name or an owner to it where it
    enters. *)
val fits : owner:string -> attrs:(string * string) list -> string -> bool

(** [of_bytes data offset] decodes one record and returns the offset of
    the next. Raises {!Malformed}. *)
val of_bytes : bytes -> int -> t * int

(** Decode a whole context-directory image. Raises {!Malformed}. *)
val all_of_bytes : bytes -> t list

(** Concatenate records into a context-directory image. *)
val directory_to_bytes : t list -> bytes

val pp : Format.formatter -> t -> unit
