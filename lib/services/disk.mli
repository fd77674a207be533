(** The simulated disk behind a storage server: 512-byte pages delivered
    every 15 ms (the paper's stream-measurement assumption), with all
    accesses serialized on the single arm. *)

type t

(** [capacity_pages] bounds the medium; unbounded by default. *)
val create : ?capacity_pages:int -> Vsim.Engine.t -> t

(** Bytes per page. *)
val page_bytes : int
val capacity_pages : t -> int option
val write_count : t -> int

(** Forget queued setup traffic: the arm is idle from now on. Used by
    benchmarks after out-of-band population. *)
val reset_arm : t -> unit

(** Block the calling fiber until [time] (no-op if past). *)
val wait_until : t -> float -> unit

(** Current contents of a page, without touching the arm (the page must
    already be in memory — used under the buffer cache): a fresh
    {!page_bytes}-byte copy of what was last written to it, zero-padded.
    Pages never written read as zeroes. *)
val peek : t -> int -> bytes

(** Blocking read of one page. *)
val read_page : t -> int -> bytes

(** Start reading a page without blocking; returns the time at which it
    will be in memory. *)
val read_page_async : t -> int -> float

(** Blocking write of one page. The page keeps only [data], at most
    {!page_bytes} long; the rest reads back as zeroes. *)
val write_page : t -> int -> bytes -> unit

(** Write-behind: the data is durable immediately, the arm time is
    accounted for, but the caller does not wait. A write of no bytes
    stores nothing and allocates nothing. *)
val write_page_behind : t -> int -> bytes -> unit
