let bfs_cells ~seed g ~count = Part.voronoi ~seed g ~count

let diameter g cells = Part.max_part_diameter g cells

let check g cells ~max_diameter =
  match Part.check g cells with
  | Error _ as e -> e
  | Ok () ->
      let d = diameter g cells in
      if d > max_diameter then
        Error (Printf.sprintf "cell diameter %d exceeds bound %d" d max_diameter)
      else Ok ()
