(* The Virtual Graphics Terminal Server (VGTS): the multiple-window
   system the paper's workstations run ("virtual graphics terminal
   server", §6; "the functionality matches well with our multiple window
   and executive system", §7).

   Windows are named temporary objects in the server's context. Every
   interaction uses the uniform machinery: Create makes a window, the
   I/O protocol writes text into it, QueryName/ModifyName read and
   change its geometry through description attributes, the context
   directory lists the windows, Remove closes one. The server can render
   the resulting screen as text, windows overlapping in z-order. *)

module Kernel = Vkernel.Kernel
module Service = Vkernel.Service
open Vnaming

type geometry = { x : int; y : int; w : int; h : int }

type window = {
  win_name : string;
  mutable geo : geometry;
  mutable z : int; (* higher is on top *)
  mutable lines : string list; (* newest first *)
  created : float;
  win_instance : int;
}

type t = {
  windows : (string, window) Hashtbl.t;
  sessions : (t, window) Instance_server.t;
  mutable next_z : int;
  engine : Vsim.Engine.t;
  mutable pid : Vkernel.Pid.t option;
}

let pid t = Option.get t.pid

let window_names t =
  Hashtbl.fold (fun n _ acc -> n :: acc) t.windows [] |> List.sort compare

let geometry t name = Option.map (fun w -> w.geo) (Hashtbl.find_opt t.windows name)

let window_lines t name =
  match Hashtbl.find_opt t.windows name with
  | Some w -> List.rev w.lines
  | None -> []

(* Geometry rides in the description's attributes, so the standard
   modify operation is the window-management interface. *)
let geometry_attrs g =
  [
    ("x", string_of_int g.x); ("y", string_of_int g.y);
    ("w", string_of_int g.w); ("h", string_of_int g.h);
  ]

let geometry_of_attrs ~current attrs =
  let field key fallback =
    match List.assoc_opt key attrs with
    | Some v -> ( match int_of_string_opt v with Some n -> n | None -> fallback)
    | None -> fallback
  in
  {
    x = field "x" current.x;
    y = field "y" current.y;
    w = max 8 (field "w" current.w);
    h = max 3 (field "h" current.h);
  }

let describe w =
  Descriptor.make ~obj_type:Descriptor.Device ~size:(List.length w.lines)
    ~created:w.created ~instance:w.win_instance ~attrs:(geometry_attrs w.geo)
    w.win_name

let raise_window t w =
  t.next_z <- t.next_z + 1;
  w.z <- t.next_z

let create_window t ~now name =
  if name = "" then Error Reply.Illegal_name
  else if Hashtbl.mem t.windows name then Error Reply.Duplicate_name
  else begin
    (* Cascade new windows so they do not pile on one spot. *)
    let n = Hashtbl.length t.windows in
    let win =
      {
        win_name = name;
        geo = { x = 2 + (3 * n); y = 1 + (2 * n); w = 28; h = 7 };
        z = 0;
        lines = [];
        created = now;
        win_instance = Instance_server.reserve t.sessions;
      }
    in
    if not (Csnh.listable (describe win)) then Error Reply.Illegal_name
    else begin
      raise_window t win;
      Hashtbl.replace t.windows name win;
      Ok win
    end
  end

(* --- the screen --- *)

(* Paint windows bottom-up into a character matrix: frames, a title bar,
   and the newest lines of content clipped to the interior. *)
let render t ~width ~height =
  let screen = Array.make_matrix height width '.' in
  let put y x c =
    if y >= 0 && y < height && x >= 0 && x < width then screen.(y).(x) <- c
  in
  let paint (w : window) =
    let { x; y; w = ww; h = hh } = w.geo in
    for row = y to y + hh - 1 do
      for col = x to x + ww - 1 do
        let c =
          if row = y || row = y + hh - 1 then '-'
          else if col = x || col = x + ww - 1 then '|'
          else ' '
        in
        put row col c
      done
    done;
    put y x '+';
    put y (x + ww - 1) '+';
    put (y + hh - 1) x '+';
    put (y + hh - 1) (x + ww - 1) '+';
    (* Title on the top border. *)
    String.iteri
      (fun i c -> if i < ww - 4 then put y (x + 2 + i) c)
      w.win_name;
    (* Newest content lines in the interior. *)
    let interior = hh - 2 in
    let lines = List.filteri (fun i _ -> i < interior) w.lines |> List.rev in
    List.iteri
      (fun i line ->
        String.iteri
          (fun j c -> if j < ww - 2 then put (y + 1 + i) (x + 1 + j) c)
          line)
      lines
  in
  Hashtbl.fold (fun _ w acc -> w :: acc) t.windows []
  |> List.sort (fun a b -> compare a.z b.z)
  |> List.iter paint;
  String.concat "\n"
    (Array.to_list (Array.map (fun row -> String.init width (Array.get row)) screen))

(* --- protocol handlers --- *)

let image_of_window w =
  match w.lines with
  | [] -> Bytes.empty
  | lines -> Bytes.of_string (String.concat "\n" (List.rev lines) ^ "\n")

(* Opening a window raises it in z-order; opening a free name for
   writing makes a window. ModifyName moves and resizes one through its
   geometry attributes. *)
let handle_name t (msg : Vmsg.t) name found =
  let open Vmsg in
  let now = Vsim.Engine.now t.engine in
  if msg.code = Op.create_object then answer (create_window t ~now name)
  else if msg.code = Op.open_instance then
    match msg.payload with
    | P_open { mode } -> (
        let window =
          match (found, mode) with
          | Some w, _ -> Ok w
          | None, (Write | Append) -> create_window t ~now name
          | None, (Read | Directory_listing) -> Error Reply.Not_found
        in
        match window with
        | Error code -> reply code
        | Ok w ->
            (* Opening a window raises it, like selecting it. *)
            raise_window t w;
            Instance_server.add t.sessions w
              ~file_size:(Bytes.length (image_of_window w)))
    | _ -> reply Reply.Bad_operation
  else if msg.code = Op.modify_name then
    match (found, msg.payload) with
    | Some w, P_descriptor requested ->
        (* Window management via the uniform modify operation: the
           geometry attributes move and resize. *)
        let geo = geometry_of_attrs ~current:w.geo requested.Descriptor.attrs in
        if not (Csnh.listable (describe { w with geo })) then
          reply Reply.Illegal_name
        else begin
          w.geo <- geo;
          raise_window t w;
          ok ()
        end
    | None, _ -> reply Reply.Not_found
    | Some _, _ -> reply Reply.Bad_operation
  else if msg.code = Op.remove_object then
    if Option.is_some found then begin
      Hashtbl.remove t.windows name;
      ok ()
    end
    else reply Reply.Not_found
  else reply Reply.Bad_operation

let context t =
  {
    Csnh.directory = "[windows]";
    owner = "system";
    objects = (fun () -> List.map (Hashtbl.find t.windows) (window_names t));
    describe;
    find = (fun name -> Ok (Hashtbl.find_opt t.windows name));
    listings = Instance_server.listings t.sessions;
    handle_name = handle_name t;
  }

(* A window session reads the window's current lines and appends each
   write as one more. *)
let kind =
  {
    Instance_server.block_size = 512;
    read = (fun _ w ~block:_ -> Instance_server.Image (image_of_window w));
    write =
      (fun _ w ~block:_ data ->
        w.lines <- Bytes.to_string data :: w.lines;
        Ok (Bytes.length data));
    describe = (fun _ _ w -> Ok (describe w));
    release = (fun _ _ -> ());
  }

let start host =
  let engine = Kernel.engine_of_domain (Kernel.domain_of_host host) in
  let t =
    {
      windows = Hashtbl.create 8;
      sessions = Instance_server.create kind;
      next_z = 0;
      engine;
      pid = None;
    }
  in
  (* The VGTS is this workstation's graphics service; reusing the
     terminal service id with Local scope would clash with the
     line-terminal server, so it registers under its own id. *)
  t.pid <-
    Some
      (Csnh.serve_flat host ~name:"vgts" ~service:Service.Id.vgts Service.Local
         ~other:(fun msg -> Instance_server.handle_io t.sessions t msg)
         (context t));
  t
