(* Tests for the domain-pool experiment fabric (lib/exec): deterministic
   chunked scheduling, exception propagation from worker domains, the
   jobs=1 inline bypass, and the pool-join merge of per-domain
   observability state (metrics and spans). *)

module Pool = Exec.Pool
module Span = Obs.Span
module Metrics = Obs.Metrics

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* A cell function with some per-cell pseudo-random work: every cell seeds
   its own [Random.State], the determinism contract the pool documents. *)
let cell_value i x =
  let st = Random.State.make [| 7919 * (i + 1); x |] in
  let acc = ref 0 in
  for _ = 1 to 200 + (i mod 7) do
    acc := (!acc * 31) + Random.State.int st 1000
  done;
  (i, x, !acc land 0xFFFFFF)

let run_with_jobs jobs cells =
  Pool.with_pool ~jobs (fun p -> Pool.map_cells p ~f:cell_value cells)

(* ---------- determinism and ordering ---------- *)

let test_map_identity () =
  let cells = Array.init 23 (fun i -> i * i) in
  let r = run_with_jobs 1 cells in
  Array.iteri
    (fun i (j, x, _) ->
      check_int "index" i j;
      check_int "input" cells.(i) x)
    r

let test_jobs_equivalence () =
  let cells = Array.init 37 (fun i -> (i * 13) + 5) in
  let seq = run_with_jobs 1 cells in
  List.iter
    (fun jobs ->
      let par = run_with_jobs jobs cells in
      check
        (Printf.sprintf "jobs=%d matches jobs=1" jobs)
        true (par = seq))
    [ 2; 3; 4; 8 ]

let test_small_and_empty () =
  (* fewer cells than jobs, one cell, zero cells *)
  check "empty" true (run_with_jobs 4 [||] = [||]);
  List.iter
    (fun n ->
      let cells = Array.init n (fun i -> i + 100) in
      check
        (Printf.sprintf "n=%d under jobs=4" n)
        true
        (run_with_jobs 4 cells = run_with_jobs 1 cells))
    [ 1; 2; 3; 4; 5 ]

let test_map_list () =
  let cells = [ 3; 1; 4; 1; 5; 9; 2; 6 ] in
  Pool.with_pool ~jobs:3 (fun p ->
      let r = Pool.map_list p ~f:(fun x -> x * x) cells in
      check "map_list order" true (r = List.map (fun x -> x * x) cells))

(* ---------- work-stealing ---------- *)

(* heavily skewed per-cell cost: one slice's chunk does almost all the
   work, so at jobs > 1 the other workers drain their own deques and then
   steal — the schedule varies, the results must not *)
let test_skewed_determinism () =
  let cells = Array.init 41 (fun i -> i) in
  let f i x =
    let spins = if i < 4 then 60_000 else 50 in
    let st = Random.State.make [| x + 1 |] in
    let acc = ref 0 in
    for _ = 1 to spins do
      acc := (!acc * 17) + Random.State.int st 256
    done;
    (i, !acc land 0xFFFFF)
  in
  let seq = Pool.with_pool ~jobs:1 (fun p -> Pool.map_cells p ~f cells) in
  List.iter
    (fun jobs ->
      let par = Pool.with_pool ~jobs (fun p -> Pool.map_cells p ~f cells) in
      check
        (Printf.sprintf "skewed costs, jobs=%d matches jobs=1" jobs)
        true (par = seq))
    [ 2; 4 ]

let test_steal_count_sanity () =
  Pool.with_pool ~jobs:3 (fun p ->
      check_int "fresh pool has no steals" 0 (Pool.steal_count p);
      let cells = Array.init 30 (fun i -> i) in
      ignore (Pool.map_cells p ~f:(fun i x -> i + x) cells);
      let after_one = Pool.steal_count p in
      (* each steal executes one cell, so a sweep can add at most one steal
         per cell; the count never decreases *)
      check "steals bounded by cells" true
        (after_one >= 0 && after_one <= Array.length cells);
      ignore (Pool.map_cells p ~f:(fun i x -> i * x) cells);
      let after_two = Pool.steal_count p in
      check "steal count monotone" true (after_two >= after_one);
      check "steals bounded across sweeps" true
        (after_two <= 2 * Array.length cells))

(* ---------- deque ---------- *)

let test_deque_owner_order () =
  let d = Exec.Deque.create ~capacity:8 in
  check "new deque empty" true (Exec.Deque.pop d = None);
  check "new deque empty for thief" true (Exec.Deque.steal d = `Empty);
  (* seed a chunk [3, 8) the way the pool does: hi-1 downto lo *)
  for i = 7 downto 3 do
    Exec.Deque.push d i
  done;
  check_int "size_hint" 5 (Exec.Deque.size_hint d);
  (* owner pops in increasing index order *)
  for i = 3 to 7 do
    check
      (Printf.sprintf "pop %d" i)
      true
      (Exec.Deque.pop d = Some i)
  done;
  check "drained" true (Exec.Deque.pop d = None)

let test_deque_steal_order () =
  let d = Exec.Deque.create ~capacity:8 in
  for i = 7 downto 3 do
    Exec.Deque.push d i
  done;
  (* thief takes from the top: the high end of the chunk first *)
  check "steal 7" true (Exec.Deque.steal d = `Stolen 7);
  check "steal 6" true (Exec.Deque.steal d = `Stolen 6);
  check "owner still gets the low end" true (Exec.Deque.pop d = Some 3)

let test_deque_capacity () =
  let d = Exec.Deque.create ~capacity:2 in
  Exec.Deque.push d 1;
  Exec.Deque.push d 2;
  check "push beyond capacity raises" true
    (try
       Exec.Deque.push d 3;
       false
     with Invalid_argument _ -> true);
  check "capacity >= 1 enforced" true
    (try
       ignore (Exec.Deque.create ~capacity:0);
       false
     with Invalid_argument _ -> true)

(* owner popping concurrently with two thieves: every pushed item is taken
   exactly once (no loss, no duplication) *)
let test_deque_concurrent () =
  let n = 10_000 in
  let d = Exec.Deque.create ~capacity:n in
  for i = n - 1 downto 0 do
    Exec.Deque.push d i
  done;
  let thief () =
    let got = ref [] in
    let continue = ref true in
    while !continue do
      match Exec.Deque.steal d with
      | `Stolen x -> got := x :: !got
      | `Retry -> Domain.cpu_relax ()
      | `Empty -> continue := false
    done;
    !got
  in
  let t1 = Domain.spawn thief and t2 = Domain.spawn thief in
  let own = ref [] in
  let continue = ref true in
  while !continue do
    match Exec.Deque.pop d with
    | Some x -> own := x :: !own
    | None -> continue := false
  done;
  let all = !own @ Domain.join t1 @ Domain.join t2 in
  check_int "every item taken exactly once" n (List.length all);
  let sorted = List.sort compare all in
  check "items are 0..n-1" true (sorted = List.init n (fun i -> i))

(* ---------- exception propagation ---------- *)

exception Boom of int

let test_exception_propagation () =
  let cells = Array.init 20 (fun i -> i) in
  let f _ x = if x mod 6 = 5 then raise (Boom x) else x in
  (* cells 5, 11, 17 raise; the lowest-indexed one must win whatever the
     chunk layout assigns to workers *)
  List.iter
    (fun jobs ->
      let got =
        try
          ignore (Pool.with_pool ~jobs (fun p -> Pool.map_cells p ~f cells));
          None
        with Boom v -> Some v
      in
      check
        (Printf.sprintf "lowest raising cell wins at jobs=%d" jobs)
        true
        (got = Some 5))
    [ 1; 2; 4; 7 ]

(* a sweep that raised must leave the pool serviceable: workers survive the
   exception and the next sweep runs normally *)
let test_pool_reusable_after_exception () =
  Pool.with_pool ~jobs:3 (fun p ->
      let cells = Array.init 17 (fun i -> i) in
      (try ignore (Pool.map_cells p ~f:(fun _ x -> if x = 9 then raise (Boom x) else x) cells)
       with Boom 9 -> ());
      let r = Pool.map_cells p ~f:(fun i x -> i + x) cells in
      check "pool serves the next sweep after an exception" true
        (r = Array.mapi (fun i x -> i + x) cells))

let test_shutdown () =
  let p = Pool.create ~jobs:3 in
  check_int "jobs" 3 (Pool.jobs p);
  Pool.shutdown p;
  Pool.shutdown p (* idempotent *);
  check "map_cells after shutdown rejected" true
    (try
       ignore (Pool.map_cells p ~f:(fun _ x -> x) [| 1; 2; 3 |]);
       false
     with Invalid_argument _ -> true)

(* ---------- jobs=1 runs inline, jobs>1 really uses other domains ---------- *)

let test_inline_bypass () =
  let main = Domain.self () in
  let cells = Array.init 6 (fun i -> i) in
  let doms =
    Pool.with_pool ~jobs:1 (fun p ->
        Pool.map_cells p ~f:(fun _ _ -> Domain.self ()) cells)
  in
  Array.iter (fun d -> check "jobs=1 stays on caller" true (d = main)) doms;
  (* single cell never leaves the caller either, whatever the pool size *)
  let doms1 =
    Pool.with_pool ~jobs:4 (fun p ->
        Pool.map_cells p ~f:(fun _ _ -> Domain.self ()) [| 0 |])
  in
  check "single cell stays on caller" true (doms1.(0) = main)

let test_workers_used () =
  let main = Domain.self () in
  let cells = Array.init 8 (fun i -> i) in
  let runs = Array.init 8 (fun _ -> Atomic.make 0) in
  (* with work-stealing the caller may legitimately run every cell of a
     trivial sweep before the workers wake, so cell 0 spins on the caller
     until some other domain has proven it executes cells — guaranteeing
     off-caller execution instead of hoping for it.  Which domain runs
     which cell is up to the schedule: slices 1.. are dispatched before
     the caller drains slice 0, so a thief may take cell 0 itself. *)
  let seen_off_main = Atomic.make false in
  let out =
    Pool.with_pool ~jobs:4 (fun p ->
        Pool.map_cells p
          ~f:(fun i x ->
            Atomic.incr runs.(i);
            let d = Domain.self () in
            if d <> main then Atomic.set seen_off_main true
            else if i = 0 then
              while not (Atomic.get seen_off_main) do
                Domain.cpu_relax ()
              done;
            (x, d))
          cells)
  in
  Array.iteri
    (fun i r -> check_int (Printf.sprintf "cell %d ran once" i) 1 (Atomic.get r))
    runs;
  Array.iteri
    (fun i (x, _) -> check_int (Printf.sprintf "result %d in cell order" i) i x)
    out;
  let off_main =
    Array.fold_left (fun n (_, d) -> if d = main then n else n + 1) 0 out
  in
  check "some cells ran off the caller domain" true (off_main > 0)

(* ---------- observability merge at pool join ---------- *)

let test_metrics_merge () =
  Metrics.reset ();
  let c = Metrics.counter "exec.test.cells" in
  let g = Metrics.gauge "exec.test.last" in
  let h = Metrics.histogram ~bounds:[| 4.; 8.; 16. |] "exec.test.sizes" in
  let cells = Array.init 19 (fun i -> i) in
  let f _ x =
    Metrics.add c (x + 1);
    Metrics.set g (float_of_int x);
    Metrics.observe h (float_of_int x);
    x
  in
  ignore (Pool.with_pool ~jobs:4 (fun p -> Pool.map_cells p ~f cells));
  (* counters sum across domains: 1 + 2 + ... + 19 *)
  check_int "counter total" 190 (Metrics.count c);
  (* gauge: absorbing snapshots in chunk order reproduces sequential
     last-writer-wins, i.e. the highest-indexed cell *)
  check "gauge last writer" true (Metrics.gauge_value g = Some 18.);
  check_int "histogram observations" 19 (Metrics.observations h);
  (* buckets: <=4 -> 0..4 (5), <=8 -> 5..8 (4), <=16 -> 9..16 (8),
     overflow -> 17,18 (2) *)
  check "histogram buckets" true
    (Metrics.bucket_counts h = [| 5; 4; 8; 2 |]);
  Metrics.reset ()

let span_stat path =
  List.find_opt (fun (s : Span.stat) -> s.path = path) (Span.stats ())

let test_span_merge () =
  Span.reset ();
  Span.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Span.set_enabled false;
      Span.reset ())
    (fun () ->
      let cells = Array.init 12 (fun i -> i) in
      let f _ x =
        Span.with_ "cell" (fun () -> Span.with_ "inner" (fun () -> x))
      in
      Span.with_ "sweep" (fun () ->
          ignore
            (Pool.with_pool ~jobs:3 (fun p -> Pool.map_cells p ~f cells)));
      (* worker spans adopt the caller's open path, so the merged table
         looks exactly like a sequential run: every cell span nests under
         "sweep" with the right depth and call counts *)
      (match span_stat "sweep/cell" with
      | None -> Alcotest.fail "sweep/cell missing from merged stats"
      | Some s ->
          check_int "cell calls" 12 s.calls;
          check_int "cell depth" 1 s.depth);
      match span_stat "sweep/cell/inner" with
      | None -> Alcotest.fail "sweep/cell/inner missing from merged stats"
      | Some s ->
          check_int "inner calls" 12 s.calls;
          check_int "inner depth" 2 s.depth)

let test_span_merge_matches_sequential () =
  let shape jobs =
    Span.reset ();
    Span.set_enabled true;
    let cells = Array.init 9 (fun i -> i) in
    let f i x = Span.with_ "work" (fun () -> i + x) in
    Span.with_ "outer" (fun () ->
        ignore (Pool.with_pool ~jobs (fun p -> Pool.map_cells p ~f cells)));
    let s =
      List.map
        (fun (s : Span.stat) -> (s.path, s.name, s.depth, s.calls))
        (Span.stats ())
    in
    Span.set_enabled false;
    Span.reset ();
    s
  in
  check "span shape jobs=4 = jobs=1" true (shape 4 = shape 1)

let () =
  Alcotest.run "exec"
    [
      ( "pool",
        [
          Alcotest.test_case "map_cells indexes and inputs" `Quick
            test_map_identity;
          Alcotest.test_case "results identical across job counts" `Quick
            test_jobs_equivalence;
          Alcotest.test_case "small and empty sweeps" `Quick
            test_small_and_empty;
          Alcotest.test_case "map_list preserves order" `Quick test_map_list;
          Alcotest.test_case "lowest-index exception propagates" `Quick
            test_exception_propagation;
          Alcotest.test_case "pool reusable after a raising sweep" `Quick
            test_pool_reusable_after_exception;
          Alcotest.test_case "shutdown is idempotent and final" `Quick
            test_shutdown;
        ] );
      ( "stealing",
        [
          Alcotest.test_case "skewed costs stay deterministic" `Quick
            test_skewed_determinism;
          Alcotest.test_case "steal counter sane and monotone" `Quick
            test_steal_count_sanity;
          Alcotest.test_case "deque owner pops in index order" `Quick
            test_deque_owner_order;
          Alcotest.test_case "deque thief steals the high end" `Quick
            test_deque_steal_order;
          Alcotest.test_case "deque capacity is enforced" `Quick
            test_deque_capacity;
          Alcotest.test_case "deque concurrent pop/steal loses nothing" `Quick
            test_deque_concurrent;
        ] );
      ( "domains",
        [
          Alcotest.test_case "jobs=1 never leaves the caller" `Quick
            test_inline_bypass;
          Alcotest.test_case "jobs>1 uses worker domains" `Quick
            test_workers_used;
        ] );
      ( "obs-merge",
        [
          Alcotest.test_case "metrics merge at join" `Quick test_metrics_merge;
          Alcotest.test_case "span paths merge under fork context" `Quick
            test_span_merge;
          Alcotest.test_case "merged span shape matches sequential" `Quick
            test_span_merge_matches_sequential;
        ] );
    ]
