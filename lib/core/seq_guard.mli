(** Replica-side deduplication and ordering of replicated writes.

    A replicated write is stamped with the coordinator's (origin, seq)
    pair ({!Vmsg.wseq}). A member admits each pair at most once and
    strictly in order: a coordinator retry or a catch-up replay of an
    already-applied write is answered instead of being applied again,
    and a write that would skip past a missed sequence number is
    rejected rather than applied out of order.

    The guard keeps one reply per origin, the reply to its last applied
    write: a coordinator sends one write at a time and logs the next
    only after every member has answered, so that is the only reply a
    retry can ask for, and a catch-up ignores replies. The applied
    high-water marks are durable (they survive a server restart, like
    the file system); the replies are memory, dropped on restart via
    {!drop_replies}. *)

type t

val create : unit -> t

(** Highest sequence number applied from [origin]; 0 if none. *)
val applied_seq : t -> origin:int -> int

(** [`Fresh] — the write is the next in sequence: apply it, then
    {!record} it. [`Replay r] — the write was already applied; answer
    with [r], the kept reply when it is the origin's last applied write,
    or a plain Ok when [r] is [None] (an older write, or a reply lost to
    a restart). [`Gap] — this member missed at least one earlier write
    from [origin]; it must NOT apply this one (same-name operations
    could invert) and should answer with a rejection the coordinator
    recognizes, staying at its high-water mark until a log replay
    delivers the missing writes in order. *)
val admit :
  t -> origin:int -> seq:int -> [ `Fresh | `Replay of Vmsg.t option | `Gap ]

(** Record the write {!admit} just called [`Fresh] as applied, with its
    reply. *)
val record : t -> origin:int -> seq:int -> Vmsg.t -> unit

(** Forget the replies and keep the high-water marks (a restart loses
    memory, not the disk). *)
val drop_replies : t -> unit
