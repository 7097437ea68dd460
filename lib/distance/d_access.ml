let default_x = 0.5
