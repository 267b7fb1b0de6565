(* Hierarchical monotonic-clock spans.

   A span covers one dynamic extent of a named pipeline phase.  Spans nest:
   the innermost open span is the parent of any span opened inside it, and a
   span's "self" time is its duration minus the total duration of its direct
   children.  Two outputs are maintained:

   - an in-process aggregation table keyed by the span *path* (names of the
     open ancestors joined with '/'), powering the per-phase breakdown the
     bench prints after each experiment;
   - one "span" event per completed span into the installed sink, if any.

   The open-frame stack and the aggregation table are per-domain (domain-
   local storage), so worker domains spawned by [Exec.Pool] record spans
   without any locking.  A worker inherits the spawning domain's innermost
   open path as its *base* ([fork_context]/[adopt]), so span paths and
   depths recorded inside a pool are identical to sequential execution; at
   join the pool captures each worker's table and folds it into the owning
   domain's ([capture]/[absorb]).

   Collection is off by default; [with_] then reduces to running the thunk
   behind one bool check.  The [on] flag is written only from the pool-
   owning domain while no worker runs; workers read it through the pool's
   task-handoff ordering. *)

type frame = {
  name : string;
  path : string;
  depth : int;
  start_ns : int64;
  mutable child_ns : int64;
  gc0 : Gcstat.sample option; (* Some iff Gcstat was enabled at open *)
  mutable child_minor_w : float;
  mutable child_promoted_w : float;
  mutable child_major_w : float;
  mutable attrs : (string * Sink.json) list; (* reverse order *)
}

type stat = {
  path : string;
  name : string;
  depth : int;
  mutable calls : int;
  mutable total_ns : int64;
  mutable self_ns : int64;
  mutable minor_words : float;
  mutable self_minor_words : float;
  mutable major_words : float;
}

let on = ref false
let set_enabled v = on := v
let enabled () = !on

type dstate = {
  mutable stack : frame list;
  mutable table : (string, stat) Hashtbl.t;
  mutable base_path : string; (* inherited parent path; "" = none *)
  mutable base_depth : int; (* depth of the inherited parent; -1 = none *)
}

let fresh () =
  { stack = []; table = Hashtbl.create 64; base_path = ""; base_depth = -1 }

let key = Domain.DLS.new_key fresh

let reset () =
  let st = Domain.DLS.get key in
  Hashtbl.reset st.table;
  st.stack <- []

let stat_for table (fr : frame) =
  match Hashtbl.find_opt table fr.path with
  | Some st -> st
  | None ->
      let st =
        {
          path = fr.path;
          name = fr.name;
          depth = fr.depth;
          calls = 0;
          total_ns = 0L;
          self_ns = 0L;
          minor_words = 0.0;
          self_minor_words = 0.0;
          major_words = 0.0;
        }
      in
      Hashtbl.replace table fr.path st;
      st

let set_attr k v =
  let ds = Domain.DLS.get key in
  match ds.stack with
  | [] -> ()
  | fr :: _ ->
      fr.attrs <-
        (k, v) :: (if List.mem_assoc k fr.attrs then List.remove_assoc k fr.attrs
                   else fr.attrs)

let close ds fr =
  let dur = Int64.sub (Clock.now_ns ()) fr.start_ns in
  (* GC delta before any bookkeeping below allocates on our account *)
  let gc_delta =
    match fr.gc0 with
    | None -> None
    | Some before -> Some (Gcstat.delta ~before ~after:(Gcstat.take ()))
  in
  (match ds.stack with
  | top :: rest when top == fr -> ds.stack <- rest
  | other ->
      (* unbalanced close (an exception skipped children): drop frames down
         to and including [fr] so the stack stays consistent *)
      let rec pop = function
        | top :: rest -> if top == fr then rest else pop rest
        | [] -> []
      in
      ds.stack <- pop other);
  (match ds.stack with
  | parent :: _ ->
      parent.child_ns <- Int64.add parent.child_ns dur;
      (match gc_delta with
      | Some d ->
          parent.child_minor_w <- parent.child_minor_w +. d.Gcstat.minor_words;
          parent.child_promoted_w <-
            parent.child_promoted_w +. d.Gcstat.promoted_words;
          parent.child_major_w <- parent.child_major_w +. d.Gcstat.major_words
      | None -> ())
  | [] -> ());
  let self = Int64.sub dur fr.child_ns in
  let st = stat_for ds.table fr in
  st.calls <- st.calls + 1;
  st.total_ns <- Int64.add st.total_ns dur;
  st.self_ns <- Int64.add st.self_ns self;
  let gc_fields =
    match gc_delta with
    | None -> []
    | Some d ->
        let self_minor = d.Gcstat.minor_words -. fr.child_minor_w in
        let self_promoted = d.Gcstat.promoted_words -. fr.child_promoted_w in
        let self_major = d.Gcstat.major_words -. fr.child_major_w in
        st.minor_words <- st.minor_words +. d.Gcstat.minor_words;
        st.self_minor_words <- st.self_minor_words +. self_minor;
        st.major_words <- st.major_words +. d.Gcstat.major_words;
        Gcstat.record_self ~self_minor ~self_promoted ~self_major d;
        [
          ( "gc",
            Sink.Obj
              (("self_minor_words", Sink.Int (int_of_float self_minor))
              :: Gcstat.fields d) );
        ]
  in
  if Sink.enabled () then
    Sink.emit ~type_:"span"
      (("name", Sink.String fr.name)
      :: ("path", Sink.String fr.path)
      :: ("depth", Sink.Int fr.depth)
      :: ("domain", Sink.Int (Domain.self () :> int))
      :: ("dur_ms", Sink.Float (Clock.ns_to_ms dur))
      :: ("self_ms", Sink.Float (Clock.ns_to_ms self))
      :: (gc_fields
         @
         match List.rev fr.attrs with
         | [] -> []
         | attrs -> [ ("attrs", Sink.Obj attrs) ]))

let with_ ?(attrs = []) name f =
  if not !on then f ()
  else begin
    let ds = Domain.DLS.get key in
    let path, depth =
      match ds.stack with
      | parent :: _ -> (parent.path ^ "/" ^ name, parent.depth + 1)
      | [] ->
          if ds.base_depth >= 0 then
            (ds.base_path ^ "/" ^ name, ds.base_depth + 1)
          else (name, 0)
    in
    let fr =
      {
        name;
        path;
        depth;
        start_ns = Clock.now_ns ();
        child_ns = 0L;
        gc0 = (if Gcstat.enabled () then Some (Gcstat.take ()) else None);
        child_minor_w = 0.0;
        child_promoted_w = 0.0;
        child_major_w = 0.0;
        attrs = List.rev attrs;
      }
    in
    ds.stack <- fr :: ds.stack;
    Fun.protect ~finally:(fun () -> close ds fr) f
  end

(* ---------------- pool support ---------------- *)

type fork_ctx = (string * int) option

let fork_context () =
  if not !on then None
  else
    let ds = Domain.DLS.get key in
    match ds.stack with
    | fr :: _ -> Some (fr.path, fr.depth)
    | [] ->
        if ds.base_depth >= 0 then Some (ds.base_path, ds.base_depth)
        else None

let adopt ctx =
  let ds = Domain.DLS.get key in
  match ctx with
  | Some (p, d) ->
      ds.base_path <- p;
      ds.base_depth <- d
  | None ->
      ds.base_path <- "";
      ds.base_depth <- -1

type snapshot = (string, stat) Hashtbl.t

let capture () =
  let ds = Domain.DLS.get key in
  let t = ds.table in
  ds.table <- Hashtbl.create 64;
  ds.stack <- [];
  ds.base_path <- "";
  ds.base_depth <- -1;
  t

let absorb (snap : snapshot) =
  let ds = Domain.DLS.get key in
  Hashtbl.iter
    (fun path st ->
      match Hashtbl.find_opt ds.table path with
      | None ->
          (* the snapshot is detached — its records can be adopted as-is *)
          Hashtbl.replace ds.table path st
      | Some own ->
          own.calls <- own.calls + st.calls;
          own.total_ns <- Int64.add own.total_ns st.total_ns;
          own.self_ns <- Int64.add own.self_ns st.self_ns;
          own.minor_words <- own.minor_words +. st.minor_words;
          own.self_minor_words <- own.self_minor_words +. st.self_minor_words;
          own.major_words <- own.major_words +. st.major_words)
    snap

(* ---------------- reporting ---------------- *)

let stats () =
  let ds = Domain.DLS.get key in
  Hashtbl.fold (fun _ st acc -> st :: acc) ds.table []
  |> List.sort (fun a b -> String.compare a.path b.path)

(* sorting by path yields tree order: "a" < "a/child" < "ab" because
   '/' sorts below every path character we use *)
let render_table ?(min_ms = 0.0) ?(alloc = false) () =
  let sts = stats () in
  if sts = [] then "(no spans recorded)\n"
  else begin
    let b = Buffer.create 1024 in
    Printf.bprintf b "%-46s %7s %11s %11s" "span" "calls" "total ms" "self ms";
    if alloc then Printf.bprintf b " %11s %11s" "alloc Mw" "self Mw";
    Buffer.add_char b '\n';
    List.iter
      (fun st ->
        let total = Clock.ns_to_ms st.total_ns in
        if total >= min_ms then begin
          Printf.bprintf b "%-46s %7d %11.2f %11.2f"
            (String.make (2 * st.depth) ' ' ^ st.name)
            st.calls total
            (Clock.ns_to_ms st.self_ns);
          if alloc then
            Printf.bprintf b " %11.2f %11.2f" (st.minor_words /. 1e6)
              (st.self_minor_words /. 1e6);
          Buffer.add_char b '\n'
        end)
      sts;
    Buffer.contents b
  end
