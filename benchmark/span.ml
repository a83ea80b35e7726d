(* Spans recorded around calls into the repository's layers.

   A span is a name, a start, an end and the span that was open when it
   began (its parent). Spans are kept in memory while the probe runs and
   written out once, when it ends. With recording off, [run] calls its
   function directly. *)

type t = {
  id : int;
  name : string;
  parent : int;  (** -1 for a root span *)
  start : float;
  mutable stop : float;
}

let enabled = ref false
let recorded : t list ref = ref []
let open_ids : int list ref = ref []
let next_id = ref 0

let run name f =
  if not !enabled then f ()
  else begin
    let parent = match !open_ids with p :: _ -> p | [] -> -1 in
    let s = { id = !next_id; name; parent; start = Unix.gettimeofday (); stop = nan } in
    incr next_id;
    recorded := s :: !recorded;
    open_ids := s.id :: !open_ids;
    Fun.protect
      ~finally:(fun () ->
        s.stop <- Unix.gettimeofday ();
        open_ids := List.tl !open_ids)
      f
  end

let all () = List.rev !recorded

let duration s = s.stop -. s.start

(* Self time of every span: its duration minus the time its children
   cover. Children of one parent never overlap (the probe is
   single-threaded and spans nest), so their durations simply add. *)
let self_times spans =
  let child = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child s.parent
          (duration s +. Option.value ~default:0.0 (Hashtbl.find_opt child s.parent)))
    spans;
  List.map
    (fun s -> (s, duration s -. Option.value ~default:0.0 (Hashtbl.find_opt child s.id)))
    spans

(* Sum of self times of the spans called [name]. *)
let self_total spans name =
  List.fold_left
    (fun acc (s, self) -> if s.name = name then acc +. self else acc)
    0.0 (self_times spans)

(* One JSON object per line: id, name, parent, start and end in
   microseconds of the host wall clock, and self time. *)
let write file =
  let oc = open_out file in
  List.iter
    (fun (s, self) ->
      Printf.fprintf oc
        "{\"id\":%d,\"name\":%S,\"parent\":%d,\"start_us\":%.0f,\"end_us\":%.0f,\"self_us\":%.1f}\n"
        s.id s.name s.parent (s.start *. 1e6) (s.stop *. 1e6) (self *. 1e6))
    (self_times (all ()));
  close_out oc
