(* Process resource probes for the scale experiments and bench ledger.

   Peak RSS comes from /proc/self/status's VmHWM line (the kernel's
   high-water mark for resident set size, in KiB); the current RSS from
   VmRSS in the same file.  Where procfs is absent (non-Linux), peak RSS
   falls back to getrusage(2)'s ru_maxrss via a one-function C stub, so
   --ledger entries stay meaningful off Linux; current RSS has no portable
   equivalent and degrades to None, with callers recording zero rather
   than failing. *)

external getrusage_maxrss_kb : unit -> int = "obs_getrusage_maxrss_kb"

let parse_status_kb ~key line =
  (* "VmHWM:\t  123456 kB" — the separator is a tab plus spaces *)
  let kl = String.length key in
  if
    String.length line > kl + 1
    && String.sub line 0 kl = key
    && line.[kl] = ':'
  then
    String.sub line (kl + 1) (String.length line - kl - 1)
    |> String.split_on_char '\t'
    |> List.concat_map (String.split_on_char ' ')
    |> List.find_map int_of_string_opt
  else None

let parse_vmhwm = parse_status_kb ~key:"VmHWM"
let parse_vmrss = parse_status_kb ~key:"VmRSS"

let scan_status parse =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> None
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          let rec scan () =
            match input_line ic with
            | exception End_of_file -> None
            | line -> ( match parse line with Some v -> Some v | None -> scan ())
          in
          scan ())

let max_rss_kb () =
  match scan_status parse_vmhwm with
  | Some v -> Some v
  | None -> ( match getrusage_maxrss_kb () with v when v > 0 -> Some v | _ -> None)

let current_rss_kb () = scan_status parse_vmrss
