(** The mail server: a name space whose user\@host syntax is imposed
    from outside the system, accessed through the same name-handling
    protocol — the extensibility argument of §2.2. The server interprets
    the whole uninterpreted remainder itself (the protocol places no
    restriction on interpretation), so it bypasses the component walk.

    Delivery and reading ride the standard I/O protocol: Append-open a
    mailbox and each Write delivers one message; Read-open returns the
    rendered mailbox. *)

module Kernel = Vkernel.Kernel

type message = { m_from : string; m_body : string; m_at : float }

type t

val start : Vnaming.Vmsg.t Kernel.host -> t
val pid : t -> Vkernel.Pid.t

(** Mailbox names, sorted. *)
val mailboxes : t -> string list

(** Messages in a mailbox, oldest first. *)
val messages : t -> string -> message list
