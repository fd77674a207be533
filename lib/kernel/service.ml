(* Service naming (§4.2): processes register as providing a numbered
   service within a scope, and clients bind service to server pid at
   time of use via GetPid. *)

type scope = Local | Remote | Both

(* Does a registration with scope [registered] answer a lookup with
   scope [wanted] arriving from the given origin? *)
let visible ~registered ~origin =
  match (registered, origin) with
  | (Local | Both), `Local_query -> true
  | Remote, `Local_query -> false
  | (Remote | Both), `Remote_query -> true
  | Local, `Remote_query -> false

(* Well-known service identifiers used by the reproduction's standard
   installation. Nothing in the kernel depends on these values; they are
   the moral equivalent of the constants in V's <Vnaming.h>. *)
module Id = struct
  let storage = 1
  let context_prefix = 2
  let time = 3
  let printer = 4
  let terminal = 5
  let mail = 6
  let exception_handler = 7
  let program_manager = 8
  let name_server = 9 (* centralized baseline, §2.1 *)
  let internet = 10
  let vgts = 11
  let replica_storage = 12 (* replicated directory service, §7 *)

  let to_string = function
    | 1 -> "storage"
    | 2 -> "context-prefix"
    | 3 -> "time"
    | 4 -> "printer"
    | 5 -> "terminal"
    | 6 -> "mail"
    | 7 -> "exception"
    | 8 -> "program-manager"
    | 9 -> "name-server"
    | 10 -> "internet"
    | 11 -> "vgts"
    | 12 -> "replica-storage"
    | n -> Fmt.str "service%d" n
end
