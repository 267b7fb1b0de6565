(* Payload slots for the native executor's in-flight messages.  The event
   heap carries only an int, so a native message event names its slot.
   Released slots go on an int-array stack, so after warm-up an
   alloc/release pair allocates nothing but the caller's payload. *)
type t = {
  mutable payload : int array array;
  mutable free : int array;  (* released slots: free.(0 .. nfree - 1) *)
  mutable nfree : int;
  mutable len : int;  (* slots handed out so far *)
}

let create () = { payload = [||]; free = [||]; nfree = 0; len = 0 }

(* only called with an empty free stack, so the old stack holds nothing *)
let grow t =
  let ncap = max 64 (2 * t.len) in
  let np = Array.make ncap [||] in
  Array.blit t.payload 0 np 0 t.len;
  t.payload <- np;
  t.free <- Array.make ncap 0

let alloc t payload =
  let i =
    if t.nfree > 0 then begin
      t.nfree <- t.nfree - 1;
      t.free.(t.nfree)
    end
    else begin
      if t.len = Array.length t.payload then grow t;
      t.len <- t.len + 1;
      t.len - 1
    end
  in
  t.payload.(i) <- payload;
  i

let payload t i = t.payload.(i)

let release t i =
  t.payload.(i) <- [||];
  t.free.(t.nfree) <- i;
  t.nfree <- t.nfree + 1
