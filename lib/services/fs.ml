(* An inode filesystem on the simulated disk.

   Directories are files on the same storage as the files they name —
   the arrangement the paper calls the natural fit for distributed name
   interpretation (§2.2): deleting an object and its name is one
   single-server operation. Directory contents are kept in an in-core
   cache (write-behind to their disk pages), modelling a storage server
   whose name-lookup path runs from memory while file data moves through
   the disk.

   A directory entry may also be a pointer to a context on another
   server ({!Remote_link}) — the cross-server arrows of Figure 4, which
   the file server turns into request forwarding. *)

module Context = Vnaming.Context
module Descriptor = Vnaming.Descriptor
module Reply = Vnaming.Reply

type entry =
  | File_entry of int
  | Dir_entry of int
  | Remote_link of Context.spec

(* What an inode holds depends on its kind: a file nothing until its
   first block write, then its block map (block index -> disk page); a
   directory its entries and the one disk page they are written behind
   to, from its first update on. *)
type contents =
  | No_blocks
  | Blocks of (int, int) Hashtbl.t
  | Entries of { table : (string, entry) Hashtbl.t; mutable page : int option }

type inode = {
  ino : int;
  kind : [ `File | `Dir ];
  mutable size : int;  (* bytes (files) *)
  mutable contents : contents;
  mutable owner : string;
  mutable writable : bool;
  mutable created : float;
  mutable modified : float;
  mutable parent : int;
  mutable name_in_parent : string;
}

type t = {
  disk : Disk.t;
  engine : Vsim.Engine.t;
  inodes : (int, inode) Hashtbl.t;
  mutable next_ino : int;
  mutable next_page : int;
  mutable free_pages : int list; (* recycled by unlink/truncate *)
  (* Buffer cache: pages present in server memory, and when they are
     (or will be) available — the basis of read-ahead. *)
  cache : (int * int, float) Hashtbl.t;
}

let root_ino = 1

let now t = Vsim.Engine.now t.engine

let mkino t ~kind ~owner ~parent ~name =
  let ino = t.next_ino in
  t.next_ino <- ino + 1;
  let node =
    {
      ino;
      kind;
      size = 0;
      contents =
        (match kind with
        | `File -> No_blocks
        | `Dir -> Entries { table = Hashtbl.create 8; page = None });
      owner;
      writable = true;
      created = now t;
      modified = now t;
      parent;
      name_in_parent = name;
    }
  in
  Hashtbl.replace t.inodes ino node;
  node

let create ?(owner = "system") disk engine =
  let t =
    {
      disk;
      engine;
      inodes = Hashtbl.create 64;
      next_ino = root_ino;
      next_page = 0;
      free_pages = [];
      cache = Hashtbl.create 256;
    }
  in
  let root = mkino t ~kind:`Dir ~owner ~parent:root_ino ~name:"/" in
  assert (root.ino = root_ino);
  t

let find t ino = Hashtbl.find_opt t.inodes ino

let get t ino =
  match Hashtbl.find t.inodes ino with
  | node -> node
  | exception Not_found -> invalid_arg (Fmt.str "Fs: no inode %d" ino)

let is_dir t ino =
  match Hashtbl.find t.inodes ino with
  | n -> n.kind = `Dir
  | exception Not_found -> false


(* Forget every buffered page (benchmarks use this to measure cold
   reads; directory entries stay in core). *)
let drop_caches t = Hashtbl.reset t.cache

(* --- directory operations (in-core, write-behind to disk) --- *)

(* Allocate a page, reusing freed ones; [None] when the medium is
   full. *)
let alloc_page t =
  match t.free_pages with
  | p :: rest ->
      t.free_pages <- rest;
      Some p
  | [] -> (
      match Disk.capacity_pages t.disk with
      | Some cap when t.next_page >= cap -> None
      | Some _ | None ->
          let p = t.next_page in
          t.next_page <- p + 1;
          Some p)

let free_page_count t =
  List.length t.free_pages
  + (match Disk.capacity_pages t.disk with
    | Some cap -> max 0 (cap - t.next_page)
    | None -> max_int / 2)

(* Charge a directory mutation: its directory file page is updated
   write-behind (does not block the request path). *)
let charge_dir_update t (dir : inode) =
  dir.modified <- now t;
  match dir.contents with
  | No_blocks | Blocks _ -> ()
  | Entries d -> (
      if d.page = None then d.page <- alloc_page t;
      match d.page with
      | Some page -> Disk.write_page_behind t.disk page Bytes.empty
      | None ->
          (* A full medium cannot persist the directory update; the
             in-core state stays authoritative in this model. *)
          ())

let lookup t ~dir name =
  match Hashtbl.find t.inodes dir with
  | { contents = Entries d; _ } -> Hashtbl.find_opt d.table name
  | _ | (exception Not_found) -> None

let entries t ~dir =
  match find t dir with
  | Some { contents = Entries d; _ } ->
      Hashtbl.fold (fun name e acc -> (name, e) :: acc) d.table []
      |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  | Some _ | None -> []

let valid_name name =
  name <> "" && name <> "." && name <> ".."
  && (not (String.contains name '/'))
  && (not (String.contains name '['))
  && not (String.contains name '\000')

(* The attribute a pointer's description record carries. *)
let link_attrs spec = [ ("target", Fmt.str "%a" Context.pp_spec spec) ]

(* Whether [entry] fits the description record [describe_entry] makes
   of it under [name]. *)
let entry_fits t name entry =
  match entry with
  | Remote_link spec ->
      Descriptor.fits ~owner:Descriptor.default_owner ~attrs:(link_attrs spec)
        name
  | File_entry ino | Dir_entry ino ->
      let owner =
        match find t ino with
        | Some node -> node.owner
        | None -> Descriptor.default_owner
      in
      Descriptor.fits ~owner ~attrs:[] name

let add_entry t ~dir name entry =
  match find t dir with
  | Some ({ contents = Entries d; _ } as node) ->
      if not (valid_name name && entry_fits t name entry) then
        Error Reply.Illegal_name
      else if Hashtbl.mem d.table name then Error Reply.Duplicate_name
      else begin
        Hashtbl.replace d.table name entry;
        charge_dir_update t node;
        Ok ()
      end
  | Some _ | None -> Error Reply.Bad_context

let create_file t ~dir ~owner name =
  match find t dir with
  | Some ({ contents = Entries d; _ } as node) ->
      if not (valid_name name && Descriptor.fits ~owner ~attrs:[] name) then
        Error Reply.Illegal_name
      else if Hashtbl.mem d.table name then Error Reply.Duplicate_name
      else begin
        let file = mkino t ~kind:`File ~owner ~parent:dir ~name in
        Hashtbl.replace d.table name (File_entry file.ino);
        charge_dir_update t node;
        Ok file.ino
      end
  | Some _ | None -> Error Reply.Bad_context

let mkdir t ~dir ~owner name =
  match find t dir with
  | Some ({ contents = Entries d; _ } as node) ->
      if not (valid_name name && Descriptor.fits ~owner ~attrs:[] name) then
        Error Reply.Illegal_name
      else if Hashtbl.mem d.table name then Error Reply.Duplicate_name
      else begin
        let child = mkino t ~kind:`Dir ~owner ~parent:dir ~name in
        Hashtbl.replace d.table name (Dir_entry child.ino);
        charge_dir_update t node;
        Ok child.ino
      end
  | Some _ | None -> Error Reply.Bad_context

(* Add a pointer to a context on another server. *)
let add_remote_link t ~dir name spec = add_entry t ~dir name (Remote_link spec)

(* Return an inode's pages to the free list: a file's blocks, which
   leave the buffer cache too, or a directory's page. *)
let free_pages_of t (node : inode) =
  match node.contents with
  | No_blocks -> ()
  | Blocks blocks ->
      Hashtbl.iter
        (fun block page ->
          Hashtbl.remove t.cache (node.ino, block);
          t.free_pages <- page :: t.free_pages)
        blocks;
      Hashtbl.reset blocks
  | Entries d ->
      Option.iter (fun page -> t.free_pages <- page :: t.free_pages) d.page;
      d.page <- None

(* Remove a name and, for files/empty directories, the object itself:
   one atomic single-server operation — the consistency property of
   §2.2. *)
let unlink t ~dir name =
  match find t dir with
  | Some ({ contents = Entries d; _ } as node) -> (
      match Hashtbl.find_opt d.table name with
      | None -> Error Reply.Not_found
      | Some entry -> (
          let obj =
            match entry with
            | File_entry ino | Dir_entry ino -> find t ino
            | Remote_link _ -> None
          in
          match obj with
          | Some { contents = Entries child; _ }
            when Hashtbl.length child.table > 0 ->
              Error Reply.No_permission
          | Some _ | None ->
              (match obj with
              | Some obj ->
                  free_pages_of t obj;
                  Hashtbl.remove t.inodes obj.ino
              | None -> ());
              Hashtbl.remove d.table name;
              charge_dir_update t node;
              Ok ()))
  | Some _ | None -> Error Reply.Bad_context

let rename t ~dir name ~new_dir new_name =
  match (find t dir, find t new_dir) with
  | ( Some ({ contents = Entries from; _ } as src),
      Some ({ contents = Entries into; _ } as dst) ) -> (
      match Hashtbl.find_opt from.table name with
      | None -> Error Reply.Not_found
      | Some entry ->
          if not (valid_name new_name && entry_fits t new_name entry) then
            Error Reply.Illegal_name
          else if Hashtbl.mem into.table new_name then
            Error Reply.Duplicate_name
          else begin
            Hashtbl.remove from.table name;
            Hashtbl.replace into.table new_name entry;
            (match entry with
            | File_entry ino | Dir_entry ino -> (
                match find t ino with
                | Some node ->
                    node.parent <- new_dir;
                    node.name_in_parent <- new_name
                | None -> ())
            | Remote_link _ -> ());
            charge_dir_update t src;
            if new_dir <> dir then charge_dir_update t dst;
            Ok ()
          end)
  | _ -> Error Reply.Bad_context

(* Resolve an absolute slash-separated path to an entry (setup and
   test convenience; protocol traffic goes through the walk). *)
let resolve_path t path =
  let components =
    String.split_on_char '/' path |> List.filter (fun c -> c <> "")
  in
  let rec loop dir = function
    | [] -> Some (Dir_entry dir)
    | c :: rest -> (
        match lookup t ~dir c with
        | Some (Dir_entry ino) -> loop ino rest
        | Some entry when rest = [] -> Some entry
        | Some _ | None -> None)
  in
  loop root_ino components

(* Full path of an inode from the root — the server-local part of
   inverse name mapping (§6). *)
let path_of_ino t ino =
  let rec loop ino acc =
    match find t ino with
    | None -> None
    | Some node ->
        if node.ino = root_ino then Some ("/" ^ String.concat "/" acc)
        else loop node.parent (node.name_in_parent :: acc)
  in
  loop ino []

(* --- file data --- *)

let page_of_block (node : inode) block =
  match node.contents with
  | Blocks blocks -> Hashtbl.find_opt blocks block
  | No_blocks | Entries _ -> None

(* The page of a file's [block], allocated if it has none; its block
   map is made at its first block write. *)
let alloc_block t (node : inode) block =
  match page_of_block node block with
  | Some _ as page -> page
  | None -> (
      match alloc_page t with
      | None -> None
      | Some page as allocated ->
          (match node.contents with
          | Blocks blocks -> Hashtbl.replace blocks block page
          | No_blocks ->
              let blocks = Hashtbl.create 4 in
              Hashtbl.replace blocks block page;
              node.contents <- Blocks blocks
          | Entries _ -> invalid_arg "Fs.alloc_block: a directory");
          allocated)

let block_size _ = Disk.page_bytes

let file_blocks t (node : inode) =
  if node.size = 0 then 0 else ((node.size - 1) / block_size t) + 1

(* Blocking read of one block, through the buffer cache. *)
let read_block t ~ino ~block =
  match find t ino with
  | None -> Error Reply.Not_found
  | Some { contents = Entries _; _ } -> Error Reply.No_permission
  | Some node ->
      let off = block * block_size t in
      if block < 0 then Error Reply.Invalid_instance
      else if off >= node.size then Error Reply.End_of_file
      else begin
        let len = min (block_size t) (node.size - off) in
        let page =
          match page_of_block node block with
          | Some p -> p
          | None -> -1
        in
        (match Hashtbl.find_opt t.cache (ino, block) with
        | Some ready_at ->
            (* In memory (possibly still arriving from a read-ahead). *)
            Disk.wait_until t.disk ready_at
        | None ->
            if page >= 0 then ignore (Disk.read_page t.disk page : bytes)
            else Disk.wait_until t.disk (Disk.read_page_async t.disk 0);
            Hashtbl.replace t.cache (ino, block) (now t));
        let data =
          if page >= 0 then Bytes.sub (Disk.peek t.disk page) 0 len
          else Bytes.make len '\000'
        in
        Ok data
      end

(* Queue an asynchronous read of a block into the cache (read-ahead). *)
let prefetch_block t ~ino ~block =
  match find t ino with
  | Some ({ contents = Blocks _; _ } as node) ->
      let off = block * block_size t in
      if off < node.size && not (Hashtbl.mem t.cache (ino, block)) then begin
        match page_of_block node block with
        | Some page ->
            let ready_at = Disk.read_page_async t.disk page in
            ignore page;
            Hashtbl.replace t.cache (ino, block) ready_at
        | None -> ()
      end
  | Some _ | None -> ()

(* Write of one block; [behind] skips waiting for the platter (used by
   scenario setup, which is not on any client's latency path). *)
let write_block ?(behind = false) t ~ino ~block data =
  match find t ino with
  | None -> Error Reply.Not_found
  | Some { contents = Entries _; _ } -> Error Reply.No_permission
  | Some node when not node.writable -> Error Reply.No_permission
  | Some node ->
      if block < 0 || Bytes.length data > block_size t then
        Error Reply.Invalid_instance
      else begin
        match alloc_block t node block with
        | None -> Error Reply.No_space
        | Some page ->
            if behind then Disk.write_page_behind t.disk page data
            else Disk.write_page t.disk page data;
            Hashtbl.replace t.cache (ino, block) (now t);
            let end_off = (block * block_size t) + Bytes.length data in
            if end_off > node.size then node.size <- end_off;
            node.modified <- now t;
            Ok (Bytes.length data)
      end

(* Change a file's size: shrinking frees whole pages beyond the new
   end; growing leaves a sparse (zero-read) tail. *)
let set_size t ~ino size =
  if size < 0 then Error Reply.Invalid_instance
  else
    match find t ino with
    | None -> Error Reply.Not_found
    | Some { contents = Entries _; _ } -> Error Reply.No_permission
    | Some node when not node.writable -> Error Reply.No_permission
    | Some node ->
        let bs = block_size t in
        let keep_blocks = if size = 0 then 0 else ((size - 1) / bs) + 1 in
        (match node.contents with
        | Blocks blocks ->
            let doomed =
              Hashtbl.fold
                (fun block page acc ->
                  if block >= keep_blocks then (block, page) :: acc else acc)
                blocks []
            in
            List.iter
              (fun (block, page) ->
                Hashtbl.remove blocks block;
                Hashtbl.remove t.cache (ino, block);
                t.free_pages <- page :: t.free_pages)
              doomed
        | No_blocks | Entries _ -> ());
        node.size <- size;
        node.modified <- now t;
        Ok ()

let truncate t ~ino =
  match find t ino with
  | None -> Error Reply.Not_found
  | Some { contents = Entries _; _ } -> Error Reply.No_permission
  | Some node ->
      free_pages_of t node;
      node.size <- 0;
      node.modified <- now t;
      Ok ()

(* Store a whole byte image into a file, page by page. With
   [behind:true] (the default, for scenario setup outside any fiber) the
   writes do not block on the platter. *)
let write_file ?(behind = true) t ~ino data =
  match truncate t ~ino with
  | Error _ as e -> e
  | Ok () ->
      let bs = block_size t in
      let len = Bytes.length data in
      let blocks = if len = 0 then 0 else ((len - 1) / bs) + 1 in
      let rec loop block =
        if block >= blocks then Ok ()
        else begin
          let off = block * bs in
          let chunk = Bytes.sub data off (min bs (len - off)) in
          match write_block ~behind t ~ino ~block chunk with
          | Ok _ -> loop (block + 1)
          | Error _ as e -> e
        end
      in
      loop 0

(* Read a whole file through the cache. *)
let read_file t ~ino =
  match find t ino with
  | None -> Error Reply.Not_found
  | Some node when node.kind <> `File -> Error Reply.No_permission
  | Some node ->
      let out = Buffer.create node.size in
      let blocks = file_blocks t node in
      let rec loop block =
        if block >= blocks then Ok (Buffer.to_bytes out)
        else
          match read_block t ~ino ~block with
          | Ok data ->
              Buffer.add_bytes out data;
              loop (block + 1)
          | Error _ as e -> e
      in
      loop 0

(* --- descriptions --- *)

let describe_entry t ~name entry =
  let module D = Descriptor in
  match entry with
  | Remote_link spec ->
      D.make ~obj_type:D.Context_pointer ~attrs:(link_attrs spec) name
  | File_entry ino | Dir_entry ino -> (
      match find t ino with
      | None -> D.make ~obj_type:D.File name
      | Some node ->
          D.make
            ~obj_type:(if node.kind = `Dir then D.Directory else D.File)
            ~size:
              (match node.contents with
              | Entries d -> Hashtbl.length d.table
              | No_blocks | Blocks _ -> node.size)
            ~owner:node.owner ~created:node.created ~modified:node.modified
            ~writable:node.writable name)

let describe_ino t ino =
  match find t ino with
  | None -> None
  | Some node ->
      Some (describe_entry t ~name:node.name_in_parent (
        if node.kind = `Dir then Dir_entry ino else File_entry ino))

(* Apply a modification record (§5.5): writable bit and owner. *)
let modify_entry t entry (requested : Descriptor.t) =
  match entry with
  | Remote_link _ -> Error Reply.No_permission
  | File_entry ino | Dir_entry ino -> (
      match find t ino with
      | None -> Error Reply.Not_found
      | Some node
        when not
               (Descriptor.fits ~owner:requested.Descriptor.owner ~attrs:[]
                  node.name_in_parent) ->
          Error Reply.Illegal_name
      | Some node ->
          node.writable <- requested.Descriptor.writable;
          node.owner <- requested.Descriptor.owner;
          node.modified <- now t;
          charge_dir_update t (get t node.parent);
          Ok ())
