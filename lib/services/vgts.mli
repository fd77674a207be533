(** The Virtual Graphics Terminal Server: the workstations' multiple-
    window system (§6), with windows as named temporary objects.

    Create makes a window; the I/O protocol writes text lines into it;
    QueryName/ModifyName read and change its geometry through the
    description attributes ([x]/[y]/[w]/[h]) — window management through
    the uniform modify operation; the context directory lists windows;
    Remove closes one. Opening a window raises it in z-order. *)

module Kernel = Vkernel.Kernel

type geometry = { x : int; y : int; w : int; h : int }

type t

(** Boot this workstation's window server (Local-scope service). *)
val start : Vnaming.Vmsg.t Kernel.host -> t

val pid : t -> Vkernel.Pid.t

val geometry : t -> string -> geometry option

(** Content lines of a window, oldest first. *)
val window_lines : t -> string -> string list

(** Paint the screen: window frames and contents, overlapping in
    z-order, on a [width]x[height] character matrix. *)
val render : t -> width:int -> height:int -> string
