(* One measured operation per process.

   run.py starts this program once per sample, so the process-wide memo
   tables of the apps and analyses start empty every time. Each mode
   prints one JSON object as its last line of output:

     probe.exe calib
     probe.exe regen  --cache DIR [--spans FILE]
     probe.exe sim    [--spans FILE]
     probe.exe layers --cache DIR --scratch DIR --spans FILE

   [regen] is one bench-size regeneration of every table, figure and
   analysis (what `repro regen --size bench --jobs 1` prints) into the
   run cache in DIR. [sim] is Water on the iPSC model at 2048 simulated
   processors, test size (what `repro run --app water --machine ipsc
   -p 2048 --size test` runs). [layers] times calls into each layer on
   its own. [--spans] turns span recording on and writes the spans to
   FILE when the process ends. *)

module Rn = Jade_experiments.Runner
module Report = Jade_experiments.Report
module Runcache = Jade_experiments.Runcache
module Metrics = Jade.Metrics

(* ---- JSON output ---- *)

type json = F of float | I of int | S of string | O of (string * json) list

let rec to_json = function
  | F f when Float.is_finite f -> Printf.sprintf "%.17g" f
  | F _ -> "null"
  | I i -> string_of_int i
  | S s -> Printf.sprintf "%S" s
  | O kv ->
      "{"
      ^ String.concat ","
          (List.map (fun (k, v) -> Printf.sprintf "%S:%s" k (to_json v)) kv)
      ^ "}"

let emit kv = print_endline (to_json (O kv))

(* ---- measurement helpers ---- *)

let median l =
  let a = Array.of_list l in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let cpu () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* Wall seconds and minor words of [f ()], with its result. *)
let measure f =
  let w0 = Gc.minor_words () in
  let t0 = Unix.gettimeofday () in
  let x = f () in
  let t1 = Unix.gettimeofday () in
  (x, t1 -. t0, Gc.minor_words () -. w0)

let repeat n f = List.init n (fun _ -> f ())

(* Median wall milliseconds of [n] calls of [f], each in a span. *)
let median_ms n name f =
  median
    (repeat n (fun () ->
         let _, wall, _ = measure (fun () -> Span.run name f) in
         1e3 *. wall))

let gc_fields () =
  let g = Gc.quick_stat () in
  [
    ("top_heap_words", I g.Gc.top_heap_words);
    ("major_collections", I g.Gc.major_collections);
  ]

(* A fixed loop that calls no repository code: integer mixing over a
   64 KiB table. Its time tracks host speed, so a drift between two sets
   of runs shows here too. *)
let calib_once () =
  let tbl = Array.init 8192 (fun i -> i * 2654435761) in
  let x = ref 88172645463325252 in
  let t0 = Unix.gettimeofday () in
  for _ = 1 to 2_000_000 do
    x := !x lxor (!x lsl 13);
    x := !x lxor (!x lsr 7);
    x := !x lxor (!x lsl 17);
    let j = !x land 8191 in
    tbl.(j) <- tbl.(j) + !x
  done;
  let ms = 1e3 *. (Unix.gettimeofday () -. t0) in
  if tbl.(0) = 42 then print_string "";
  ms

(* ---- regeneration ---- *)

(* Every item `repro regen` prints, in its order: the fourteen tables
   beside the paper's numbers, then figures 2-21, then the seven
   analyses. *)
let collect r =
  let tables =
    List.init 14 (fun i ->
        let n = i + 1 in
        let t = Span.run "experiments.table" (fun () -> Jade_experiments.Tables.table r n) in
        (Printf.sprintf "table%02d" n, `Cmp (t, Jade_experiments.Paper_data.table n)))
  in
  let figures =
    Span.run "experiments.figures" (fun () -> Jade_experiments.Figures.all r)
    |> List.mapi (fun i t -> (Printf.sprintf "figure%02d" (i + 2), `Plain t))
  in
  let analyses =
    Span.run "experiments.analyses" (fun () -> Jade_experiments.Analyses.all r)
    |> List.mapi (fun i t -> (Printf.sprintf "analysis%02d" (i + 1), `Plain t))
  in
  tables @ figures @ analyses

(* Each item's text is the rendered item plus the newline repro adds, so
   the concatenation is byte-identical to its output. *)
let render items =
  List.map
    (fun (name, item) ->
      let text =
        Span.run "report.render" (fun () ->
            match item with
            | `Cmp (ours, paper) -> Report.render_comparison ~ours ~paper
            | `Plain t -> Report.render t)
      in
      (name, text ^ "\n"))
    items

let md5 text = Digest.to_hex (Digest.string text)
let text_md5 items = md5 (String.concat "" (List.map snd items))
let item_md5 items = O (List.map (fun (n, text) -> (n, S (md5 text))) items)

let mode_regen ~cache_dir =
  (* Set-up ends once the runner's cache directory exists. *)
  ignore (Runcache.create ~dir:cache_dir);
  let ready_at = Unix.gettimeofday () in
  let c0 = cpu () in
  let (r, items), wall, words =
    measure (fun () ->
        Span.run "regen.pass" (fun () ->
            let r = Span.run "runner.create" (fun () -> Rn.create ~jobs:1 ~cache_dir Rn.Bench) in
            (r, render (collect r))))
  in
  let cpu_s = cpu () -. c0 in
  emit
    ([
       ("ready_at", F ready_at);
       ("wall_s", F wall);
       ("cpu_s", F cpu_s);
       ("minor_words", F words);
       ("events", I (Rn.events_simulated r));
       ("text_md5", S (text_md5 items));
       ("item_md5", item_md5 items);
     ]
    @ gc_fields ())

(* ---- the 2048-processor run ---- *)

(* Simulated counts and a digest of a summary. The digest covers every
   field a fault-free run sets, with floats printed exactly, so any
   change in the simulated outcome shows. *)
let summary_fields (s : Metrics.summary) =
  let canon =
    Printf.sprintf "tasks=%d elapsed=%h locality=%h task_time=%h compute=%h comm_time=%h \
                    comm_mbytes=%h msgs=%d fetches=%d obj_lat=%h task_lat=%h bcasts=%d \
                    eager=%d steals=%d events=%d"
      s.tasks s.elapsed_s s.locality_pct s.task_time_s s.compute_time_s s.comm_time_s
      s.comm_mbytes s.msg_count s.fetches s.object_latency_s s.task_latency_s
      s.broadcast_count s.eager_count s.steal_count s.event_count
  in
  [
    ("summary_md5", S (Digest.to_hex (Digest.string canon)));
    ("tasks", I s.tasks);
    ("fetches", I s.fetches);
    ("broadcasts", I s.broadcast_count);
    ("msgs", I s.msg_count);
    ("mbytes", F s.comm_mbytes);
    ("events", I s.event_count);
  ]

let mode_sim () =
  let r = Span.run "runner.create" (fun () -> Rn.create ~jobs:1 Rn.Test) in
  let config = Rn.config_of_level Rn.Loc in
  let ready_at = Unix.gettimeofday () in
  let c0 = cpu () in
  let s, wall, words =
    measure (fun () ->
        Span.run "runner.run" (fun () ->
            Rn.run r ~app:Rn.Water ~machine:Rn.Ipsc ~nprocs:2048 ~config ~placed:false))
  in
  let cpu_s = cpu () -. c0 in
  emit
    ([
       ("ready_at", F ready_at);
       ("wall_s", F wall);
       ("cpu_s", F cpu_s);
       ("minor_words", F words);
     ]
    @ summary_fields s @ gc_fields ())

(* ---- per-layer probes ---- *)

(* Bench-size parameters, as Runner uses them for [Bench]. *)
let bench_program app ~kind ~nprocs =
  let placed = false in
  match app with
  | `Water ->
      fst (Jade_apps.Water.make { Jade_apps.Water.paper_params with Jade_apps.Water.iters = 2 } ~kind ~placed ~nprocs)
  | `String -> fst (Jade_apps.String_app.make Jade_apps.String_app.bench_params ~kind ~placed ~nprocs)
  | `Ocean ->
      fst (Jade_apps.Ocean.make { Jade_apps.Ocean.paper_params with Jade_apps.Ocean.iters = 50 } ~kind ~placed ~nprocs)
  | `Cholesky -> fst (Jade_apps.Cholesky.make Jade_apps.Cholesky.bench_params ~kind ~placed ~nprocs)

let app_name = function
  | `Water -> "water"
  | `String -> "string"
  | `Ocean -> "ocean"
  | `Cholesky -> "cholesky"

(* A recording run of [program] into a fresh store, sealed for
   replaying. *)
let record ~machine ~nprocs program =
  let store = Jade.Replay.create_store () in
  ignore (Jade.Runtime.run ~replay:(Jade.Replay.recorder store) ~machine ~nprocs program);
  Jade.Replay.seal store;
  store

let replay store ~machine ~nprocs program =
  Jade.Runtime.run ~replay:(Jade.Replay.replayer store) ~machine ~nprocs program

(* Host time of the app kernels: a recording run executes every task
   body, a replaying run of the same program skips them, and the rest of
   the two runs is the same simulation. *)
let probe_apps () =
  List.fold_left
    (fun acc app ->
      let name = app_name app in
      let kind = Jade_apps.App_common.Mp and machine = Jade.Runtime.ipsc860 in
      let program () = Span.run "apps.make" (fun () -> bench_program app ~kind ~nprocs:8) in
      let recorded = program () in
      let store =
        Span.run ("apps.record." ^ name) (fun () -> record ~machine ~nprocs:8 recorded)
      in
      let replayed = program () in
      ignore
        (Span.run ("apps.replay." ^ name) (fun () -> replay store ~machine ~nprocs:8 replayed));
      let spans = Span.all () in
      acc
      +. Span.self_total spans ("apps.record." ^ name)
      -. Span.self_total spans ("apps.replay." ^ name))
    0.0
    [ `Water; `String; `Ocean; `Cholesky ]

(* The bare event loop: one self-rescheduling flat op. *)
let flat_loop n =
  let eng = Jade_sim.Engine.create ~events_hint:n () in
  let remaining = ref n in
  let op = ref (-1) in
  op :=
    Jade_sim.Engine.register_op eng (fun arg ->
        if !remaining > 0 then begin
          decr remaining;
          Jade_sim.Engine.schedule_op_at eng ~op:!op ~arg (Jade_sim.Engine.now eng +. 0.001)
        end);
  Jade_sim.Engine.schedule_op_at eng ~op:!op ~arg:7 0.001;
  Jade_sim.Engine.run eng

let probe_sim () =
  let n = 2_000_000 in
  let runs =
    repeat 5 (fun () ->
        let events, wall, words = measure (fun () -> Span.run "sim.flat_loop" (fun () -> flat_loop n)) in
        (1e9 *. wall /. float_of_int events, words /. float_of_int events))
  in
  (median (List.map fst runs), median (List.map snd runs))

(* Replayed runs: the runtime and message path without kernels. *)
let probe_replay_machines () =
  let store =
    Span.run "core.record.p32" (fun () ->
        record ~machine:Jade.Runtime.ipsc860 ~nprocs:32
          (bench_program `Water ~kind:Jade_apps.App_common.Mp ~nprocs:32))
  in
  List.map
    (fun (name, machine, kind) ->
      let program = bench_program `Water ~kind ~nprocs:32 in
      let ms =
        median_ms 3 ("core.replay." ^ name) (fun () -> replay store ~machine ~nprocs:32 program)
      in
      ("core.replay_ms." ^ name, F ms))
    [
      ("dash", Jade.Runtime.dash, Jade_apps.App_common.Shm);
      ("ipsc", Jade.Runtime.ipsc860, Jade_apps.App_common.Mp);
      ("lan", Jade.Runtime.lan, Jade_apps.App_common.Mp);
    ]

(* Replayed test-size Water on the iPSC at [nprocs]: ns and minor words
   per event. *)
let probe_replay_p nprocs =
  let program () =
    fst (Jade_apps.Water.make Jade_apps.Water.test_params ~kind:Jade_apps.App_common.Mp ~placed:false ~nprocs)
  in
  let machine = Jade.Runtime.ipsc860 in
  let store =
    Span.run (Printf.sprintf "core.record.p%d" nprocs) (fun () -> record ~machine ~nprocs (program ()))
  in
  let runs =
    repeat 3 (fun () ->
        let program = program () in
        let s, wall, words =
          measure (fun () ->
              Span.run (Printf.sprintf "core.replay.p%d" nprocs) (fun () ->
                  replay store ~machine ~nprocs program))
        in
        let ev = float_of_int s.Metrics.event_count in
        (1e9 *. wall /. ev, words /. ev))
  in
  (median (List.map fst runs), median (List.map snd runs))

let entries_of dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".jrc")
  |> List.map Filename.chop_extension
  |> List.sort compare

let mode_layers ~cache_dir ~scratch =
  let calib = median (repeat 9 (fun () -> Span.run "host.calib" calib_once)) in
  let kernel_s = Span.run "apps.kernel" probe_apps in
  let sim_ns, sim_words = Span.run "sim" probe_sim in
  let replay_ms = Span.run "core.replay" probe_replay_machines in
  let p256_ns, _ = Span.run "core.p256" (fun () -> probe_replay_p 256) in
  let p2048_ns, p2048_words = Span.run "core.p2048" (fun () -> probe_replay_p 2048) in
  (* The memo pass: a runner whose memo already holds every cell (one
     priming pass read them from the cache) regenerates again, with no
     simulation and no disk read. *)
  let r = Rn.create ~jobs:1 ~cache_dir Rn.Bench in
  let items = Span.run "runner.prime" (fun () -> collect r) in
  let lookups0 = (Rn.stats r).Rn.cache_lookups in
  let memo_ms = median_ms 20 "runner.memo_pass" (fun () -> collect r) in
  let memo_disk_reads = (Rn.stats r).Rn.cache_lookups - lookups0 in
  let render_ms = median_ms 20 "report.render" (fun () -> render items) in
  (* Run-cache I/O over every entry the cold regeneration wrote. *)
  let cache = Runcache.create ~dir:cache_dir in
  let keys = entries_of cache_dir in
  let find_all () = List.map (fun d -> (d, Runcache.find cache ~digest:d)) keys in
  let values = find_all () in
  let find_ms = median_ms 5 "runcache.find" find_all in
  let store_ms =
    median
      (List.init 5 (fun i ->
           let dir = Filename.concat scratch (Printf.sprintf "store%d" i) in
           let c = Runcache.create ~dir in
           let _, wall, _ =
             measure (fun () ->
                 Span.run "runcache.store" (fun () ->
                     List.iter
                       (fun (d, v) -> Option.iter (Runcache.store c ~digest:d) v)
                       values))
           in
           1e3 *. wall))
  in
  let entries, bytes = Runcache.dir_stats cache in
  (* Simulated counts of the whole regeneration: every cached summary. *)
  let sum f =
    List.fold_left
      (fun acc (_, v) -> match v with Some (Runcache.Summary s) -> acc +. f s | _ -> acc)
      0.0 values
  in
  let isum f = int_of_float (sum (fun s -> float_of_int (f s))) in
  emit
    [
      ( "metrics",
        O
          ([
             ("host.calib_ms", F calib);
             ("apps.kernel_s", F kernel_s);
             ("sim.ns_per_event", F sim_ns);
             ("sim.words_per_event", F sim_words);
           ]
          @ replay_ms
          @ [
              ("core.ns_per_event.p256", F p256_ns);
              ("core.ns_per_event.p2048", F p2048_ns);
              ("core.words_per_event.p2048", F p2048_words);
              ("runner.memo_pass_ms", F memo_ms);
              ("runcache.find_ms", F find_ms);
              ("runcache.store_ms", F store_ms);
              ("runcache.entries", I entries);
              ("runcache.kbytes", F (float_of_int bytes /. 1e3));
              ("report.render_ms", F render_ms);
            ]) );
      ("memo_disk_reads", I memo_disk_reads);
      ( "regen_counts",
        O
          [
            ("tasks", I (isum (fun s -> s.Metrics.tasks)));
            ("fetches", I (isum (fun s -> s.Metrics.fetches)));
            ("broadcasts", I (isum (fun s -> s.Metrics.broadcast_count)));
            ("msgs", I (isum (fun s -> s.Metrics.msg_count)));
            ("mbytes", F (sum (fun s -> s.Metrics.comm_mbytes)));
          ] );
    ]

let mode_calib () =
  emit
    [
      ("calib_ms", F (median (repeat 9 calib_once)));
      ("ocaml", S Sys.ocaml_version);
      ("cores", I (Domain.recommended_domain_count ()));
    ]

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec opt k = function
    | k' :: v :: _ when k' = k -> Some v
    | _ :: rest -> opt k rest
    | [] -> None
  in
  let need k =
    match opt k args with
    | Some v -> v
    | None -> failwith (Printf.sprintf "probe: missing %s" k)
  in
  let spans = opt "--spans" args in
  Span.enabled := spans <> None;
  (match args with
  | "calib" :: _ -> mode_calib ()
  | "regen" :: _ -> mode_regen ~cache_dir:(need "--cache")
  | "sim" :: _ -> mode_sim ()
  | "layers" :: _ ->
      ignore (need "--spans");
      mode_layers ~cache_dir:(need "--cache") ~scratch:(need "--scratch")
  | _ -> failwith "probe: unknown mode");
  Option.iter Span.write spans
