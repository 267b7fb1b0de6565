(* Binary min-heap over parallel arrays: priorities in a float array
   (unboxed) and payloads in a plain array, instead of one array of boxed
   (float * 'a) tuples — a push costs zero allocations once the backing
   stores have grown, where the tuple layout boxed both the pair and the
   float on every push. *)
type 'a t = {
  mutable prio : float array;
  mutable data : 'a array;
  mutable len : int;
}

let create () = { prio = [||]; data = [||]; len = 0 }
let is_empty q = q.len = 0
let size q = q.len

let grow q item =
  let cap = Array.length q.data in
  if q.len = cap then begin
    let ncap = max 8 (2 * cap) in
    let np = Array.make ncap 0.0 in
    let nd = Array.make ncap item in
    Array.blit q.prio 0 np 0 q.len;
    Array.blit q.data 0 nd 0 q.len;
    q.prio <- np;
    q.data <- nd
  end

let swap q i j =
  let tp = q.prio.(i) and td = q.data.(i) in
  q.prio.(i) <- q.prio.(j);
  q.data.(i) <- q.data.(j);
  q.prio.(j) <- tp;
  q.data.(j) <- td

let push q prio x =
  grow q x;
  q.prio.(q.len) <- prio;
  q.data.(q.len) <- x;
  q.len <- q.len + 1;
  (* sift up *)
  let i = ref (q.len - 1) in
  let continue = ref true in
  while !continue && !i > 0 do
    let p = (!i - 1) / 2 in
    if q.prio.(p) > q.prio.(!i) then begin
      swap q p !i;
      i := p
    end
    else continue := false
  done

let peek q = if q.len = 0 then None else Some (q.prio.(0), q.data.(0))

(* Event-queue variant: a min-heap over four parallel arrays (one float,
   three int) keyed by the composite (time, a, b) compared
   lexicographically, carrying an immediate int payload.  A
   discrete-event scheduler keys on (delivery_time, edge_dir, seq): float
   time alone cannot break ties deterministically (two messages can
   arrive at the same instant), and boxing the key as a tuple would
   allocate on every push.

   Both sifts move entries into a hole and write the carried entry once,
   with the key test inlined on the unboxed arrays; times are never NaN
   (the asynch executors only add non-negative latencies to a clock that
   starts at zero), so [<] and [=] on them order exactly as
   [Float.compare] would.  The minimum is read field by field
   ([min_time], [min_a]) and [pop] returns only its payload, so neither
   side of the queue allocates once the backing stores have grown.
   decrease_key is deliberately absent: an event, once scheduled, never
   reschedules. *)
module Event = struct
  type t = {
    mutable time : float array;
    mutable ka : int array;
    mutable kb : int array;
    mutable pay : int array;
    mutable len : int;
    mutable hwm : int;
  }

  let create () =
    { time = [||]; ka = [||]; kb = [||]; pay = [||]; len = 0; hwm = 0 }

  let is_empty q = q.len = 0
  let size q = q.len
  let high_water q = q.hwm

  let grow q =
    let ncap = max 8 (2 * q.len) in
    let nt = Array.make ncap 0.0 in
    let na = Array.make ncap 0 in
    let nb = Array.make ncap 0 in
    let np = Array.make ncap 0 in
    Array.blit q.time 0 nt 0 q.len;
    Array.blit q.ka 0 na 0 q.len;
    Array.blit q.kb 0 nb 0 q.len;
    Array.blit q.pay 0 np 0 q.len;
    q.time <- nt;
    q.ka <- na;
    q.kb <- nb;
    q.pay <- np

  (* the strict (time, a, b) order, inlined at every use so the float
     keys stay unboxed *)
  let[@inline] before (t1 : float) (a1 : int) (b1 : int) t2 a2 b2 =
    t1 < t2 || (t1 = t2 && (a1 < a2 || (a1 = a2 && b1 < b2)))

  let[@inline] push q ~time ~a ~b payload =
    if q.len = Array.length q.pay then grow q;
    let tm = q.time and ka = q.ka and kb = q.kb and pay = q.pay in
    let i = ref q.len in
    q.len <- q.len + 1;
    if q.len > q.hwm then q.hwm <- q.len;
    (* sift up: parents that order after the new key move down into the
       hole *)
    let continue = ref true in
    while !continue && !i > 0 do
      let p = (!i - 1) / 2 in
      if before time a b tm.(p) ka.(p) kb.(p) then begin
        tm.(!i) <- tm.(p);
        ka.(!i) <- ka.(p);
        kb.(!i) <- kb.(p);
        pay.(!i) <- pay.(p);
        i := p
      end
      else continue := false
    done;
    tm.(!i) <- time;
    ka.(!i) <- a;
    kb.(!i) <- b;
    pay.(!i) <- payload

  let empty () = invalid_arg "Pqueue.Event: empty queue"
  let[@inline] min_time q = if q.len = 0 then empty () else q.time.(0)
  let min_a q = if q.len = 0 then empty () else q.ka.(0)

  let pop q =
    if q.len = 0 then empty ();
    let tm = q.time and ka = q.ka and kb = q.kb and pay = q.pay in
    let top = pay.(0) in
    let n = q.len - 1 in
    q.len <- n;
    if n > 0 then begin
      (* sift down: the last entry is carried from the root; the smaller
         child moves up into the hole while it orders before the carried
         key *)
      let time = tm.(n) and a = ka.(n) and b = kb.(n) in
      let i = ref 0 in
      let continue = ref true in
      while !continue do
        let l = (2 * !i) + 1 in
        if l >= n then continue := false
        else begin
          let r = l + 1 in
          let c =
            if r < n && before tm.(r) ka.(r) kb.(r) tm.(l) ka.(l) kb.(l) then r
            else l
          in
          if before tm.(c) ka.(c) kb.(c) time a b then begin
            tm.(!i) <- tm.(c);
            ka.(!i) <- ka.(c);
            kb.(!i) <- kb.(c);
            pay.(!i) <- pay.(c);
            i := c
          end
          else continue := false
        end
      done;
      tm.(!i) <- time;
      ka.(!i) <- a;
      kb.(!i) <- b;
      pay.(!i) <- pay.(n)
    end;
    top
end

let pop q =
  if q.len = 0 then None
  else begin
    let top = (q.prio.(0), q.data.(0)) in
    q.len <- q.len - 1;
    if q.len > 0 then begin
      q.prio.(0) <- q.prio.(q.len);
      q.data.(0) <- q.data.(q.len);
      (* sift down *)
      let i = ref 0 in
      let continue = ref true in
      while !continue do
        let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
        let smallest = ref !i in
        if l < q.len && q.prio.(l) < q.prio.(!smallest) then smallest := l;
        if r < q.len && q.prio.(r) < q.prio.(!smallest) then smallest := r;
        if !smallest <> !i then begin
          swap q !smallest !i;
          i := !smallest
        end
        else continue := false
      done
    end;
    Some top
  end
